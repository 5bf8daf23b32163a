package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"overprov/internal/cluster"
	"overprov/internal/estimate"
	"overprov/internal/faultinject"
	"overprov/internal/units"
)

// gatedEstimator parks every TryFeedback between entered and release,
// letting a test hold a feedback event exactly inside the
// journal-append → estimator-train window.
type gatedEstimator struct {
	*faultinject.Estimator
	entered chan struct{}
	release chan struct{}
}

func (g gatedEstimator) TryFeedback(o estimate.Outcome) error {
	g.entered <- struct{}{}
	<-g.release
	return g.Estimator.TryFeedback(o)
}

// TestQuiesceExcludesAppendTrainWindow pins the rotation invariant
// deterministically: while a completion sits between its journal append
// and its estimator training, Quiesce must block — a rotation running
// in that window would snapshot state missing the record and then
// delete the journal holding it, losing acked feedback.
func TestQuiesceExcludesAppendTrainWindow(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{Nodes: 4, Mem: units.MemSize(64)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gate := gatedEstimator{
		Estimator: faultinject.NewEstimator(inner, faultinject.NewSchedule()),
		entered:   make(chan struct{}),
		release:   make(chan struct{}),
	}
	var journaled atomic.Uint64
	srv, err := New(Config{
		Cluster:   cl,
		Estimator: gate,
		Journal: journalFunc(func(outcomes []estimate.Outcome) error {
			journaled.Add(uint64(len(outcomes)))
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if w := do(t, h, "POST", "/api/v1/jobs", submitBody(1)); w.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}

	// The completion journals, then parks inside training, holding the
	// rotation read-lock.
	compDone := make(chan struct{})
	go func() {
		defer close(compDone)
		do(t, h, "POST", "/api/v1/jobs/1/complete", `{"success":true}`)
	}()
	<-gate.entered
	if journaled.Load() != 1 {
		t.Fatal("feedback reached training before journaling — write-ahead order broken")
	}

	qDone := make(chan struct{})
	go func() {
		defer close(qDone)
		_ = srv.Quiesce(func() error { return nil })
	}()
	select {
	case <-qDone:
		t.Fatal("Quiesce completed while a feedback was between journal append and training")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate.release)
	<-compDone
	select {
	case <-qDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Quiesce never completed after the feedback finished")
	}
}

// trainCounter counts completed training calls, delegating the rest.
type trainCounter struct {
	*faultinject.Estimator
	trained *atomic.Uint64
}

func (s trainCounter) TryFeedback(o estimate.Outcome) error {
	err := s.Estimator.TryFeedback(o)
	s.trained.Add(1)
	return err
}

// TestRotationNeverSplitsAppendTrain hammers concurrent completions
// against a spinning Quiesce: under the write lock, every journaled
// outcome must already be trained on — the exact invariant a snapshot
// rotation relies on before deleting the old journal generation.
func TestRotationNeverSplitsAppendTrain(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{Nodes: 1 << 10, Mem: units.MemSize(64)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := estimate.NewShardedSynchronized(estimate.SuccessiveApproxConfig{Alpha: 2, Round: cl}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var journaled, trained atomic.Uint64
	srv, err := New(Config{
		Cluster:   cl,
		Estimator: trainCounter{faultinject.NewEstimator(inner, faultinject.NewSchedule()), &trained},
		Journal: journalFunc(func(outcomes []estimate.Outcome) error {
			journaled.Add(uint64(len(outcomes)))
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				w := do(t, h, "POST", "/api/v1/jobs", submitBody(c))
				var v JobView
				if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil || v.State != StateRunning {
					t.Errorf("submit: %v state %q", err, v.State)
					return
				}
				path := fmt.Sprintf("/api/v1/jobs/%d/complete", v.ID)
				if w := do(t, h, "POST", path, `{"success":true}`); w.Code != http.StatusOK {
					t.Errorf("complete: %d %s", w.Code, w.Body)
					return
				}
			}
		}()
	}

	stop := make(chan struct{})
	quiesces := 0
	var wgQ sync.WaitGroup
	wgQ.Add(1)
	go func() {
		defer wgQ.Done()
		// Quiesce before checking stop: on a single CPU this goroutine's
		// first time slice can land after the clients already finished, and
		// the invariant must still be checked at least once.
		for {
			err := srv.Quiesce(func() error {
				if j, tr := journaled.Load(), trained.Load(); j != tr {
					return fmt.Errorf("quiesced with %d journaled but only %d trained", j, tr)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			quiesces++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	wg.Wait()
	close(stop)
	wgQ.Wait()
	if quiesces == 0 {
		t.Fatal("the quiescing goroutine never ran")
	}
	if j, tr := journaled.Load(), trained.Load(); j != uint64(clients*perClient) || tr != j {
		t.Fatalf("journaled=%d trained=%d, want both %d", j, tr, clients*perClient)
	}
	t.Logf("%d quiesces interleaved with %d completions", quiesces, clients*perClient)
}
