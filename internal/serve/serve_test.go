package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedJob returns a job that blocks until release is closed, so tests
// can hold run slots busy deterministically.
func gatedJob(release <-chan struct{}, ran *atomic.Int64) func(context.Context) {
	return func(ctx context.Context) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		ran.Add(1)
	}
}

func TestPoolRunsJobs(t *testing.T) {
	// QueueDepth covers every submission so none can race the workers
	// into a (legitimate) overload shed; overload behavior is
	// TestPoolOverload's job.
	p := NewPool(Config{Workers: 2, QueueDepth: 10})
	defer func() {
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func(context.Context) { ran.Add(1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 10 {
		t.Fatalf("ran %d jobs, want 10", got)
	}
	s := p.Stats()
	if s.Admitted != 10 || s.Completed != 10 {
		t.Fatalf("stats admitted=%d completed=%d, want 10/10", s.Admitted, s.Completed)
	}
}

func TestPoolOverload(t *testing.T) {
	p := NewPool(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var ran atomic.Int64

	// Occupy the single worker, then the single queue slot.
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Do(context.Background(), func(ctx context.Context) {
			close(started)
			gatedJob(release, &ran)(ctx)
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Do(context.Background(), gatedJob(release, &ran)); err != nil {
			t.Error(err)
		}
	}()
	// Wait for the queued task to actually sit in the queue.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued job never showed up in the gauge")
		}
		time.Sleep(time.Millisecond)
	}

	err := p.Do(context.Background(), func(context.Context) { t.Error("overflow job ran") })
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OverloadError, got %T", err)
	}
	if oe.Capacity != 1 || oe.Workers != 1 {
		t.Fatalf("overload context wrong: %+v", oe)
	}
	if p.Stats().ShedOverload != 1 {
		t.Fatalf("ShedOverload = %d, want 1", p.Stats().ShedOverload)
	}

	close(release)
	wg.Wait()
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("ran %d gated jobs, want 2", got)
	}
}

func TestPoolShedsDeadlineDoomed(t *testing.T) {
	p := NewPool(Config{Workers: 1, QueueDepth: 1})
	defer func() {
		if err := p.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := p.Do(ctx, func(context.Context) { t.Error("doomed job ran") })
	if !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	if p.Stats().ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", p.Stats().ShedDeadline)
	}
}

func TestPoolCancelWhileQueued(t *testing.T) {
	p := NewPool(Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	var ran atomic.Int64

	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Do(context.Background(), func(ctx context.Context) {
			close(started)
			gatedJob(release, &ran)(ctx)
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- p.Do(ctx, func(context.Context) { t.Error("canceled job ran") })
	}()
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want wrapped context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not return")
	}
	if p.Stats().Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1", p.Stats().Canceled)
	}
	close(release)
	wg.Wait()
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPoolShutdownDrainsAndRejects(t *testing.T) {
	p := NewPool(Config{Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), gatedJob(release, &ran)); err != nil {
				t.Error(err)
			}
		}()
	}
	// Let the jobs reach the pool before shutting down.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Admitted < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d admitted", p.Stats().Admitted)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	if got := ran.Load(); got != 6 {
		t.Fatalf("drained %d jobs, want 6", got)
	}

	// New work is rejected, immediately and forever.
	for i := 0; i < 2; i++ {
		start := time.Now()
		err := p.Do(context.Background(), func(context.Context) { t.Error("post-shutdown job ran") })
		if !errors.Is(err, ErrShuttingDown) {
			t.Fatalf("want ErrShuttingDown, got %v", err)
		}
		if time.Since(start) > time.Second {
			t.Fatal("post-shutdown Do blocked")
		}
	}
	if p.Stats().RejectedShutdown != 2 {
		t.Fatalf("RejectedShutdown = %d, want 2", p.Stats().RejectedShutdown)
	}
	// Shutdown is idempotent.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestPoolShutdownHonorsContext(t *testing.T) {
	p := NewPool(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var ran atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Do(context.Background(), func(ctx context.Context) {
			close(started)
			gatedJob(release, &ran)(ctx)
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded from interrupted drain, got %v", err)
	}
	close(release)
	// A second Shutdown finishes the drain.
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("resumed shutdown: %v", err)
	}
	wg.Wait()
}

// poolSpawned counts the live goroutines started by a Pool method.
func poolSpawned() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by repro/internal/serve.(*Pool).")
}

// TestPoolShutdownRunsOnWorkers pins that the drain runs on the
// admitted callers' own goroutines: a Shutdown its context interrupts
// starts no goroutine, and the Shutdown that sees the drain finish
// returns with DrainDuration already recorded.
func TestPoolShutdownRunsOnWorkers(t *testing.T) {
	p := NewPool(Config{Workers: 2, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Do(context.Background(), func(ctx context.Context) {
			close(started)
			gatedJob(release, &ran)(ctx)
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled from interrupted drain, got %v", err)
	}
	if n := poolSpawned(); n != 0 {
		t.Fatalf("interrupted Shutdown left %d goroutines beside the workers", n)
	}
	if d := p.Stats().DrainDuration; d != 0 {
		t.Fatalf("DrainDuration = %v while a job still runs", d)
	}
	close(release)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("resumed shutdown: %v", err)
	}
	if d := p.Stats().DrainDuration; d <= 0 {
		t.Fatalf("DrainDuration = %v after Shutdown returned nil", d)
	}
	// Once drained, even a Shutdown whose context is done reports the
	// finished drain.
	for range 100 {
		if err := p.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown of a drained pool: %v", err)
		}
	}
	wg.Wait()
}

// TestPoolStress hammers a small pool from 200 goroutines with a mix
// of healthy, short-deadline and pre-canceled requests and proves the
// accounting identity: every request is answered, shed or canceled —
// none lost.
func TestPoolStress(t *testing.T) {
	p := NewPool(Config{Workers: 4, QueueDepth: 8})
	const n = 200
	var (
		answered, overloaded, shed, canceled, other atomic.Int64
		wg                                          sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			switch i % 5 {
			case 3:
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*100*time.Microsecond)
				defer cancel()
			case 4:
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				cancel()
			}
			err := p.Do(ctx, func(ctx context.Context) {
				// A tiny slice of "solver" work that honors ctx.
				select {
				case <-time.After(200 * time.Microsecond):
				case <-ctx.Done():
				}
			})
			switch {
			case err == nil:
				answered.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			case errors.Is(err, ErrShed):
				shed.Add(1)
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				canceled.Add(1)
			default:
				other.Add(1)
				t.Errorf("unclassified outcome: %v", err)
			}
		}(i)
	}
	wg.Wait()
	total := answered.Load() + overloaded.Load() + shed.Load() + canceled.Load() + other.Load()
	if total != n {
		t.Fatalf("outcomes %d != requests %d", total, n)
	}
	s := p.Stats()
	accounted := s.Completed + s.ShedOverload + s.ShedDeadline + s.Canceled + s.RejectedShutdown
	if accounted != n {
		t.Fatalf("stats account for %d of %d requests: %+v", accounted, n, s)
	}
	if s.Queued != 0 || s.InFlight != 0 {
		t.Fatalf("pool not quiescent after stress: %+v", s)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitForWaiters blocks until n callers are parked in Pool.await
// waiting for a run slot. The Queued gauge alone cannot order two
// waiters: a caller joins it just before it blocks on the slot
// channel, and the channel, not the gauge, decides who gets a freed
// slot.
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(2 * time.Second)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		parked := 0
		for _, g := range strings.Split(dump, "\n\n") {
			header, frames, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[select") && strings.HasPrefix(frames, "repro/internal/serve.(*Pool).await") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers parked waiting for a slot, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolFIFO pins the wait order: with the one slot taken, two
// callers that queue in order get the freed slot in that order.
func TestPoolFIFO(t *testing.T) {
	p := NewPool(Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := p.Do(context.Background(), func(context.Context) {
			close(started)
			<-release
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started

	var mu sync.Mutex
	var order []string
	for i, name := range []string{"first", "second"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func(context.Context) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
			}); err != nil {
				t.Error(err)
			}
		}()
		waitForWaiters(t, i+1)
	}
	close(release)
	wg.Wait()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("waiters ran in order %v, want [first second]", order)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestPoolPanicReleasesSlot: a job runs on its caller's goroutine, so
// its panic reaches Do's caller, and the slot and the live count are
// released on the way out.
func TestPoolPanicReleasesSlot(t *testing.T) {
	p := NewPool(Config{Workers: 1, QueueDepth: 1})
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		_ = p.Do(context.Background(), func(context.Context) { panic("job panic") })
	}()
	if recovered != "job panic" {
		t.Fatalf("recovered %v, want the job's panic", recovered)
	}

	// The one slot is free again: a slot still held would make this
	// call wait until its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var ran atomic.Int64
	if err := p.Do(ctx, func(context.Context) { ran.Add(1) }); err != nil {
		t.Fatalf("Do after a panicked job: %v", err)
	}
	if ran.Load() != 1 {
		t.Fatal("job after a panicked job did not run")
	}
	s := p.Stats()
	if s.Admitted != 2 || s.Completed != 2 || s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("counters after a panicked job: %+v", s)
	}
	// A live count the panic left raised would keep the drain open
	// until ctx's deadline.
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("drain after a panicked job: %v", err)
	}
	if p.Stats().DrainDuration <= 0 {
		t.Fatal("drain duration not recorded")
	}
}
