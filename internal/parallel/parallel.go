// Package parallel provides the bounded, deterministic fan-out primitives
// the experiment harness and sweep experiments use to exploit multicore
// hosts without perturbing results.
//
// Determinism contract: work items are identified by index, results are
// written to the index's slot, and aggregation happens in input order at
// the call site — so output is byte-identical no matter how many workers
// run or how the scheduler interleaves them. This only holds if each item
// derives its randomness from stable identifiers (see xrand.Split), never
// from call order; every experiment cell in this repo does.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic carries a panic recovered from a worker goroutine back to the
// caller: the original value plus the stack of the goroutine that raised
// it. Re-raising loses the raising goroutine's stack trace, so ForEach
// wraps the first failure in a Panic before re-panicking — the crash
// output then shows the worker frame that actually failed, not just the
// pool drain in the caller.
type Panic struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error so recovered Panics compose with errors.As-style
// handling in callers that turn panics into failures.
func (p *Panic) Error() string { return p.String() }

// Unwrap exposes the original value to errors.Is/As when it was an error.
func (p *Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// String formats the original value followed by the worker stack.
func (p *Panic) String() string {
	return fmt.Sprintf("%v\n\nworker stack:\n%s", p.Value, p.Stack)
}

// Workers resolves a -jobs style request: n > 0 is taken as given, n <= 0
// defaults to GOMAXPROCS (use every core the runtime will schedule on).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS). Items are claimed dynamically, so
// uneven item costs still fill all workers. It returns when every call
// has finished or the pool stopped early on a failure.
//
// A panic in any item stops the pool: workers finish the item they are
// on but claim no new ones, and the first failure is re-raised in the
// caller wrapped in *Panic, preserving the failing worker's stack. So a
// crash in one sweep cell surfaces in the calling test or tool with the
// cell's own trace, without burning the remaining items' work first.
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach whose fn also receives the index w of the
// worker running item i, in [0, min(Workers(workers), n)). One worker
// runs its items one at a time, so per-worker scratch indexed by w needs
// no lock. The calling goroutine is worker 0, so a pool of k workers
// starts k-1 goroutines; with one worker every item runs on the calling
// goroutine, in order.
func ForEachWorker(n, workers int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		stop     atomic.Bool
		panicMu  sync.Mutex
		panicked *Panic
	)
	work := func(w int) {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						stop.Store(true)
						p, ok := r.(*Panic) // nested pools: keep the innermost stack
						if !ok {
							p = &Panic{Value: r, Stack: debug.Stack()}
						}
						panicMu.Lock()
						if panicked == nil {
							panicked = p
						}
						panicMu.Unlock()
					}
				}()
				fn(w, i)
			}()
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	// A new goroutine waits in this P's next slot, which an idle P steals
	// only after a delay; yielding once starts it here at once while the
	// idle P picks up the caller.
	runtime.Gosched()
	work(0)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Map runs fn over [0, n) with bounded workers and returns the results in
// input order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible work. All items run to completion; if any
// failed, the error of the lowest-index failure is returned (a stable
// choice, so error output does not depend on scheduling).
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, workers, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
