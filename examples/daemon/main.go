// Daemon walkthrough: the estimation loop as a live scheduler service.
//
// This example embeds the scheduler daemon (the same core cmd/schedd
// serves), submits repeated jobs of one similarity class over its HTTP
// API, reports their completions, and prints how the matcher's estimate
// walks down from the requested 32 MB — Algorithm 1 learning in
// wall-clock time rather than simulation.
//
// Run: go run ./examples/daemon
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"overprov"
	"overprov/internal/server"
)

func main() {
	cl, err := overprov.CM5Cluster(24)
	if err != nil {
		log.Fatal(err)
	}
	est, err := overprov.NewSuccessiveApprox(2, 0, cl)
	if err != nil {
		log.Fatal(err)
	}
	core, err := server.New(server.Config{Cluster: cl, Estimator: est})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(core.Handler())
	defer ts.Close()
	fmt.Printf("scheduler daemon on %s — cluster %s\n\n", ts.URL, cl)

	// One job class: user 3, app 7, requests 32MB but really needs ~5MB
	// (so every capacity the walk tries suffices until it probes below
	// the 24MB pool... which this two-pool cluster never does — the
	// estimate settles on the 24MB pool exactly as in the paper's
	// evaluation cluster).
	fmt.Println("cycle  est(MB)  alloc(MB)  note")
	for i := 1; i <= 5; i++ {
		v := submit(ts.URL, server.SubmitRequest{
			User: 3, App: 7, Nodes: 32, ReqMemMB: 32, ReqTimeS: 600,
		})
		note := ""
		if v.AllocMB < 32 {
			note = "← matched to the smaller pool"
		}
		fmt.Printf("%5d  %7.0f  %9.0f  %s\n", i, v.EstMemMB, v.AllocMB, note)
		complete(ts.URL, v.ID, true)
	}

	var status server.StatusView
	getJSON(ts.URL+"/api/v1/status", &status)
	fmt.Printf("\ndaemon state: %d queued, %d running, estimator %s\n",
		status.Queued, status.Running, status.Estimator)

	resp, err := http.Get(ts.URL + "/api/v1/estimates")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var state struct {
		Groups []struct {
			User       int     `json:"user"`
			App        int     `json:"app"`
			EstimateMB float64 `json:"estimate_mb"`
			LastGoodMB float64 `json:"last_good_mb"`
		} `json:"groups"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		log.Fatal(err)
	}
	for _, g := range state.Groups {
		fmt.Printf("learned: user %d / app %d → estimate %.0fMB (last safe %.0fMB)\n",
			g.User, g.App, g.EstimateMB, g.LastGoodMB)
	}
	fmt.Println("\nthe learned state survives restarts: run cmd/schedd with -wal-dir waldir")
}

func submit(base string, req server.SubmitRequest) server.JobView {
	var v server.JobView
	postJSON(base+"/api/v1/jobs", req, &v)
	return v
}

func complete(base string, id int64, success bool) {
	postJSON(fmt.Sprintf("%s/api/v1/jobs/%d/complete", base, id),
		server.CompleteRequest{Success: success}, nil)
}

func postJSON(url string, body, out interface{}) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			log.Fatal(err)
		}
	}
}

func getJSON(url string, out interface{}) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
