package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestStoreCountersConcurrentWithWrites hammers the object and data
// stores from writer goroutines while readers poll the aggregate
// counters. Every counter and the blob map are read and written under
// the store's one mutex, so this test runs meaningfully under -race: a
// counter or blob read outside the lock would be a data race and could
// observe torn totals.
func TestStoreCountersConcurrentWithWrites(t *testing.T) {
	oss := NewObjectStore()
	odps := NewDataStore()
	const writers = 4
	const perWriter = 200

	var writersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = oss.Bytes()
				_ = len(oss.List(""))
				_ = odps.Len()
				// Yield so the writers make progress on a single-CPU
				// -race run; a hot spin here starves them into the
				// test-binary timeout.
				runtime.Gosched()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d/obj-%d", w, i)
				if err := oss.PutBatch(key, []string{key}, [][]byte{[]byte("0123456789")}); err != nil {
					t.Errorf("put %s: %v", key, err)
				}
				keys := []string{key + "/a", key + "/b"}
				blobs := [][]byte{[]byte("aaaa"), []byte("bbbb")}
				if err := oss.PutBatch(key+"/batch", keys, blobs); err != nil {
					t.Errorf("putbatch %s: %v", key, err)
				}
				if err := odps.Insert(key, Row{Session: key, Key: "spans", Value: 1}); err != nil {
					t.Errorf("insert %s: %v", key, err)
				}
				if _, ok := oss.Get(key); !ok {
					t.Errorf("get %s: missing", key)
				}
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if got := len(oss.List("")); got != writers*perWriter*3 {
		t.Fatalf("stored %d keys, want %d", got, writers*perWriter*3)
	}
	wantBytes := int64(writers * perWriter * (10 + 4 + 4))
	if got := oss.Bytes(); got != wantBytes {
		t.Fatalf("Bytes() = %d, want %d", got, wantBytes)
	}
	if got := odps.Len(); got != writers*perWriter {
		t.Fatalf("ODPS len = %d, want %d", got, writers*perWriter)
	}
}
