package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"overprov/internal/server"
	"overprov/internal/wire"
)

// result is one item of a reply, in wire.Result's terms for both protocols.
type result struct {
	ID    int64
	State byte // wire.State*
	Err   string
	// AllocMB is the capacity the job runs with. swp results do not carry
	// it; only the oracle's transport fills it in.
	AllocMB float64
}

// transport is one generator connection. Each call is exactly one request
// on that connection; a returned error means the whole request failed.
type transport interface {
	submit(jobs []scriptJob, dst []result) ([]result, error)
	complete(ids []int64, success []bool, dst []result) ([]result, error)
	close()
}

// swpConn is a persistent swp connection (the protocol of cmd/loadgen
// -proto wire and of the router's backend pool).
type swpConn struct {
	c       net.Conn
	fr      *wire.Reader
	bw      *bufio.Writer
	enc     wire.Encoder
	version uint8
	jobs    []wire.Job
	comps   []wire.Completion
	res     []wire.Result
}

// newSwpConn wraps an established connection and negotiates the version.
func newSwpConn(c net.Conn) (*swpConn, error) {
	sc := &swpConn{c: c, fr: wire.NewReader(bufio.NewReader(c)), bw: bufio.NewWriter(c)}
	hello := sc.enc.Hello(wire.Hello{Min: wire.VersionMin, Max: wire.VersionMax}, wire.VersionMin)
	if _, err := sc.bw.Write(hello); err != nil {
		return nil, err
	}
	if err := sc.bw.Flush(); err != nil {
		return nil, err
	}
	f, err := sc.fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	if f.Type != wire.TypeHello {
		return nil, fmt.Errorf("swp handshake rejected: %s", wire.DecodeError(f.Payload))
	}
	sc.version = f.Version
	return sc, nil
}

func dialSwp(addr string) (*swpConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	sc, err := newSwpConn(c)
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("%s: %w", addr, err)
	}
	return sc, nil
}

func (sc *swpConn) exchange(frame []byte, want wire.FrameType, dst []result) ([]result, error) {
	if _, err := sc.bw.Write(frame); err != nil {
		return dst, err
	}
	if err := sc.bw.Flush(); err != nil {
		return dst, err
	}
	f, err := sc.fr.ReadFrame()
	if err != nil {
		return dst, err
	}
	if f.Type == wire.TypeError {
		return dst, fmt.Errorf("server error: %s", wire.DecodeError(f.Payload))
	}
	if f.Type != want {
		return dst, fmt.Errorf("reply type %d, want %d", f.Type, want)
	}
	sc.res, err = wire.DecodeResults(f.Payload, sc.res[:0])
	if err != nil {
		return dst, err
	}
	for _, r := range sc.res {
		dst = append(dst, result{ID: r.ID, State: r.State, Err: r.Err})
	}
	return dst, nil
}

func wireJob(j scriptJob) wire.Job {
	return wire.Job{User: j.User, App: j.App, Nodes: j.Nodes, ReqMemMB: j.ReqMemMB, ReqTimeS: j.ReqTimeS}
}

func (sc *swpConn) submit(jobs []scriptJob, dst []result) ([]result, error) {
	sc.jobs = sc.jobs[:0]
	for _, j := range jobs {
		sc.jobs = append(sc.jobs, wireJob(j))
	}
	return sc.exchange(sc.enc.SubmitBatch(sc.version, sc.jobs), wire.TypeSubmitResult, dst)
}

func (sc *swpConn) complete(ids []int64, success []bool, dst []result) ([]result, error) {
	sc.comps = sc.comps[:0]
	for i, id := range ids {
		sc.comps = append(sc.comps, wire.Completion{ID: id, Success: success[i]})
	}
	return sc.exchange(sc.enc.CompleteBatch(sc.version, sc.comps), wire.TypeCompleteResult, dst)
}

func (sc *swpConn) close() { _ = sc.c.Close() }

// httpConn drives the JSON API's single-job endpoints over one keep-alive
// connection. It carries one job per request, so batches must be of one.
type httpConn struct {
	base   string
	client *http.Client
	body   bytes.Buffer
}

func newHTTPConn(addr string) *httpConn {
	return &httpConn{
		base: "http://" + addr,
		client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				IdleConnTimeout:     time.Minute,
			},
		},
	}
}

func (hc *httpConn) post(path string, in interface{}, dst []result) ([]result, error) {
	hc.body.Reset()
	if err := json.NewEncoder(&hc.body).Encode(in); err != nil {
		return dst, err
	}
	resp, err := hc.client.Post(hc.base+path, "application/json", &hc.body)
	if err != nil {
		return dst, err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return dst, err
	}
	if resp.StatusCode/100 != 2 {
		// A well-formed refusal of this one job: a per-item error.
		return append(dst, result{Err: fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))}), nil
	}
	var v server.JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return dst, err
	}
	return append(dst, result{ID: v.ID, State: wire.StateByte(string(v.State))}), nil
}

func (hc *httpConn) submit(jobs []scriptJob, dst []result) ([]result, error) {
	if len(jobs) != 1 {
		return dst, fmt.Errorf("http transport carries one job per request, got %d", len(jobs))
	}
	j := jobs[0]
	return hc.post("/api/v1/jobs", server.SubmitRequest{
		User: int(j.User), App: int(j.App), Nodes: int(j.Nodes), ReqMemMB: j.ReqMemMB, ReqTimeS: j.ReqTimeS,
	}, dst)
}

func (hc *httpConn) complete(ids []int64, success []bool, dst []result) ([]result, error) {
	if len(ids) != 1 {
		return dst, fmt.Errorf("http transport carries one job per request, got %d", len(ids))
	}
	return hc.post("/api/v1/jobs/"+strconv.FormatInt(ids[0], 10)+"/complete", server.CompleteRequest{Success: success[0]}, dst)
}

func (hc *httpConn) close() { hc.client.CloseIdleConnections() }
