package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"overprov/internal/server"
)

// drainResult reports what a graceful shutdown achieved.
type drainResult struct {
	// Drained is how many in-flight requests completed within the
	// deadline; Aborted how many were cut off when it expired.
	Drained, Aborted int64
	// Clean is true when every listener shut down inside the deadline.
	Clean bool
}

func (d drainResult) String() string {
	state := "clean"
	if !d.Clean {
		state = "deadline exceeded"
	}
	return fmt.Sprintf("drained %d request(s), aborted %d (%s)", d.Drained, d.Aborted, state)
}

// drain gracefully shuts down the API listener (and the optional debug
// and wire listeners) with one shared deadline: readiness flips to
// draining first, then each listener's Shutdown waits for in-flight
// requests, and whatever is still running at the deadline is aborted
// by Close. The old shutdown path called Close directly, dropping
// in-flight completion reports — feedback the estimator never saw.
func drain(srv *server.Server, httpSrv, debugSrv *http.Server, wireSrv *server.WireServer, timeout time.Duration) drainResult {
	srv.BeginDrain()
	before := srv.InFlight()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	res := drainResult{Clean: true}
	if err := httpSrv.Shutdown(ctx); err != nil {
		res.Clean = false
		_ = httpSrv.Close()
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(ctx); err != nil {
			res.Clean = false
			_ = debugSrv.Close()
		}
	}
	if wireSrv != nil {
		// WireServer.Shutdown lets each connection finish the frame it is
		// processing (its completion report reaches the estimator) and
		// force-closes stragglers at the deadline.
		if err := wireSrv.Shutdown(ctx); err != nil {
			res.Clean = false
		}
	}
	res.Aborted = srv.InFlight()
	res.Drained = before - res.Aborted
	if res.Drained < 0 {
		res.Drained = 0
	}
	return res
}
