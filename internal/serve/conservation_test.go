package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolStatsConservationUnderLoad is the counter-conservation
// stress (run under -race by `make test-serve`): a mixed storm of
// healthy, pre-canceled, deadline-doomed and abandoned requests, then
// a drain, after which the identities must hold exactly:
//
//   - every request classifies client-side (none lost, none double
//     counted);
//   - issued = Admitted + ShedOverload + admission-time deadline
//     sheds + RejectedShutdown;
//   - Admitted = Completed + Canceled + ShedAtDequeue (queue empty);
//   - the gauges read zero and the drain metric is recorded.
func TestPoolStatsConservationUnderLoad(t *testing.T) {
	p := NewPool(Config{Workers: 4, QueueDepth: 8})
	const n = 600
	var (
		wg                                sync.WaitGroup
		ran                               atomic.Uint64
		okCount, overload, shed, canceled atomic.Uint64
		rejected, unclassified            atomic.Uint64
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			switch i % 5 {
			case 1: // pre-canceled: shed at admission
				c, cancel := context.WithCancel(ctx)
				cancel()
				ctx = c
			case 2: // tight deadline: sheds at admission, at dequeue, or cancels while queued
				c, cancel := context.WithTimeout(ctx, time.Duration(i%7)*100*time.Microsecond)
				defer cancel()
				ctx = c
			case 3: // abandoned while queued (sometimes)
				c, cancel := context.WithCancel(ctx)
				defer cancel()
				if i%2 == 1 {
					go func() {
						time.Sleep(time.Duration(i%11) * 50 * time.Microsecond)
						cancel()
					}()
				}
				ctx = c
			}
			err := p.Do(ctx, func(jctx context.Context) {
				ran.Add(1)
				// A sliver of real work so the queue backs up and the
				// dequeue-time shed path is exercised.
				select {
				case <-time.After(200 * time.Microsecond):
				case <-jctx.Done():
				}
			})
			switch {
			case err == nil:
				okCount.Add(1)
			case errors.Is(err, ErrOverloaded):
				overload.Add(1)
			case errors.Is(err, ErrShed):
				shed.Add(1)
			case errors.Is(err, ErrShuttingDown):
				rejected.Add(1)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				canceled.Add(1)
			default:
				unclassified.Add(1)
				t.Errorf("unclassified outcome: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain failed: %v", err)
	}

	s := p.Stats()
	if total := okCount.Load() + overload.Load() + shed.Load() + canceled.Load() + rejected.Load() + unclassified.Load(); total != n {
		t.Fatalf("classified %d of %d requests", total, n)
	}
	if s.Queued != 0 || s.InFlight != 0 {
		t.Fatalf("gauges not drained: queued=%d inflight=%d", s.Queued, s.InFlight)
	}
	if s.Admitted != s.Completed+s.Canceled+s.ShedAtDequeue {
		t.Fatalf("admitted %d != completed %d + canceled %d + shedAtDequeue %d",
			s.Admitted, s.Completed, s.Canceled, s.ShedAtDequeue)
	}
	admissionSheds := s.ShedDeadline - s.ShedAtDequeue
	if n != s.Admitted+s.ShedOverload+admissionSheds+s.RejectedShutdown {
		t.Fatalf("issued %d != admitted %d + overload %d + admission sheds %d + rejected %d",
			n, s.Admitted, s.ShedOverload, admissionSheds, s.RejectedShutdown)
	}
	if s.Completed != ran.Load() {
		t.Fatalf("Completed = %d but %d jobs ran", s.Completed, ran.Load())
	}
	if okCount.Load() == 0 {
		t.Fatal("no request completed under load")
	}
	// The last worker out records the drain before Shutdown returns.
	if s.DrainDuration <= 0 {
		t.Fatalf("DrainDuration = %v after Shutdown returned nil", s.DrainDuration)
	}
}
