package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		n := 1000
		hits := make([]atomic.Int32, n)
		ForEach(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestForEachWorkerIndexes checks ForEachWorker's worker indexes: each
// is below min(workers, n), and no two items of one worker overlap, so
// per-worker scratch needs no lock.
func TestForEachWorkerIndexes(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 500
		busy := make([]atomic.Int32, workers)
		hits := make([]atomic.Int32, n)
		ForEachWorker(n, workers, func(w, i int) {
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: item %d ran on worker %d", workers, i, w)
				return
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("workers=%d: worker %d ran two items at once", workers, w)
			}
			hits[i].Add(1)
			busy[w].Add(-1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	ForEachWorker(3, 8, func(w, i int) {
		if w >= 3 {
			t.Errorf("3 items ran on worker %d", w)
		}
	})
}

func TestForEachEmptyAndTiny(t *testing.T) {
	ForEach(0, 8, func(int) { t.Fatal("ran on n=0") })
	ran := false
	ForEach(1, 8, func(i int) { ran = true })
	if !ran {
		t.Fatal("n=1 did not run")
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	n := 500
	want := Map(n, 1, func(i int) int { return i * i })
	for _, workers := range []int{2, 4, 16} {
		got := Map(n, workers, func(i int) int { return i * i })
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapErrReturnsLowestIndexError(t *testing.T) {
	bad := map[int]bool{7: true, 3: true, 9: true}
	_, err := MapErr(16, 8, func(i int) (int, error) {
		if bad[i] {
			return 0, fmt.Errorf("item %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "item 3 failed" {
		t.Fatalf("err = %v, want the lowest-index failure (item 3)", err)
	}
}

func TestMapErrNilOnSuccess(t *testing.T) {
	out, err := MapErr(10, 4, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !errors.Is(r.(error), errBoom) {
			t.Fatalf("recovered %v", r)
		}
	}()
	ForEach(100, 8, func(i int) {
		if i == 42 {
			panic(errBoom)
		}
	})
}

var errBoom = errors.New("boom")

// panicHelper raises from a named frame so the stack test below can
// assert the worker's trace survived the hop across goroutines.
func panicHelper() {
	panic(errBoom)
}

func TestForEachPanicKeepsWorkerStack(t *testing.T) {
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recovered %T, want *Panic", r)
		}
		if p.Value != error(errBoom) {
			t.Fatalf("Panic.Value = %v", p.Value)
		}
		if !strings.Contains(string(p.Stack), "panicHelper") {
			t.Fatalf("worker stack lost the raising frame:\n%s", p.Stack)
		}
		if !errors.Is(p, errBoom) {
			t.Fatal("Panic does not unwrap to the original error")
		}
	}()
	ForEach(10, 4, func(i int) {
		if i == 0 {
			panicHelper()
		}
	})
}

// TestForEachPanicStopsEarly checks that a failure stops the pool from
// claiming new items instead of burning through the whole range. Item 0
// panics immediately; every other item costs real time, so if the stop
// flag were ignored the two workers would have to grind through all
// remaining items before the panic resurfaced.
func TestForEachPanicStopsEarly(t *testing.T) {
	const n = 100_000
	var ran atomic.Int64
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
		if got := ran.Load(); got >= n-1 {
			t.Fatalf("pool ran all %d items after the panic; early stop is broken", got)
		}
	}()
	ForEach(n, 2, func(i int) {
		if i == 0 {
			panic(errBoom)
		}
		ran.Add(1)
		time.Sleep(50 * time.Microsecond)
	})
}

// TestForEachConcurrentStress exercises the pool under -race: shared
// per-slot writes must not race, and the dynamic claim counter must never
// hand out an index twice.
func TestForEachConcurrentStress(t *testing.T) {
	n := 10_000
	out := make([]int, n)
	ForEach(n, 32, func(i int) { out[i] = i })
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
