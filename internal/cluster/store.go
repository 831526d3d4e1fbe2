package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"exist/internal/faults"
)

// attemptLedger counts the failed attempts of each key whose write has
// not yet succeeded. Injected fault rolls are keyed by (key, attempt), so
// the count is what makes a retry roll fresh; once the write succeeds the
// key is dropped, and the ledger only ever holds keys still retrying.
type attemptLedger map[string]int

// settle records the outcome of attempt on key: a failure counts one
// more attempt, a success forgets the key.
func (l attemptLedger) settle(key string, attempt int, err error) {
	switch {
	case err != nil:
		l[key] = attempt + 1
	case attempt > 0:
		delete(l, key)
	}
}

// ObjectStore is the unstructured blob store EXIST uploads raw sessions
// to (the OSS stand-in of §4): traced data goes straight to the object
// store instead of node-local files, avoiding node memory and file I/O.
//
// The store is one blob map and one attempt ledger behind one mutex.
// Every put runs on the control goroutine: a window that closes while
// the nodes advance is parked and replayed at the barrier, so uploads
// never contend. The mutex keeps readers from other goroutines safe.
// Storing a blob is one map write; Bytes sums the stored blobs when
// asked.
//
// PutBatch is fault-aware: with an injector that can fail puts attached,
// attempts can fail with transient errors (the control plane retries
// with backoff), and the injector counts each failed attempt
// (faults.Stats.PutFailures). Without one, PutBatch never fails and never
// reads the attempt ledger.
type ObjectStore struct {
	mu       sync.Mutex
	blobs    map[string][]byte
	attempts attemptLedger
	inj      *faults.Injector
	// putsFail caches whether inj can fail a put at all.
	putsFail bool
}

// NewObjectStore returns an empty store.
func NewObjectStore() *ObjectStore { return newObjectStore(0) }

// newObjectStore returns an empty store whose blob map is sized to hold
// blobs keys without growing.
func newObjectStore(blobs int) *ObjectStore {
	return &ObjectStore{blobs: make(map[string][]byte, blobs), attempts: make(attemptLedger)}
}

// UseFaults attaches a fault injector; nil detaches it.
func (o *ObjectStore) UseFaults(inj *faults.Injector) {
	o.inj = inj
	o.putsFail = inj.Config().PutFailProb > 0
}

// PutBatch stores several blobs in one upload, replacing any previous
// values: the batch succeeds or fails atomically (one injected-fault
// roll, keyed by batchKey, covers the whole request; on failure nothing
// is stored and the caller should retry), counts as a single put in the
// upload ledger, and each blob still lands under its own key. This is
// the wire-level amortization behind Config.UploadBatch.
//
// The store takes ownership of the blobs on success: it keeps the slices
// without copying, so the caller must not modify them afterwards. The
// attempt ledger counts a key's failed attempts and forgets the key once
// a put succeeds; a key put again after success rolls from attempt 0.
// Only an injector that can fail puts is consulted: without one every
// roll would succeed at attempt 0, so the ledger would stay empty.
func (o *ObjectStore) PutBatch(batchKey string, keys []string, blobs [][]byte) error {
	if len(keys) != len(blobs) {
		return fmt.Errorf("oss: PutBatch with %d keys, %d blobs", len(keys), len(blobs))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.putsFail {
		attempt := o.attempts[batchKey]
		err := o.inj.PutError(batchKey, attempt)
		o.attempts.settle(batchKey, attempt, err)
		if err != nil {
			return err
		}
	}
	for i, key := range keys {
		o.blobs[key] = blobs[i]
	}
	return nil
}

// Get retrieves a blob.
func (o *ObjectStore) Get(key string) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	b, ok := o.blobs[key]
	return b, ok
}

// Delete removes a blob, reporting whether it existed.
func (o *ObjectStore) Delete(key string) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	_, ok := o.blobs[key]
	delete(o.blobs, key)
	return ok
}

// List returns all keys with the prefix, sorted.
func (o *ObjectStore) List(prefix string) []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var keys []string
	for k := range o.blobs {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// Bytes returns the stored volume, summed over the blobs.
func (o *ObjectStore) Bytes() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var n int64
	for _, b := range o.blobs {
		n += int64(len(b))
	}
	return n
}

// Row is one structured record in the processing store.
type Row struct {
	// App, Node and Session identify the source.
	App, Node, Session string
	// Key and Value are the datum (e.g. a function name and its
	// occurrence count).
	Key   string
	Value float64
}

// DataStore is the structured, queryable store decoded results land in
// (the ODPS stand-in of §4); engineers query it for analysis and
// reproduction. It is one row slice and one attempt ledger behind one
// mutex, written from the control goroutine like the object store.
// Insert is fault-aware under an attached injector, like
// ObjectStore.PutBatch.
type DataStore struct {
	mu       sync.Mutex
	rows     []Row
	attempts attemptLedger
	inj      *faults.Injector
}

// NewDataStore returns an empty store.
func NewDataStore() *DataStore { return &DataStore{attempts: make(attemptLedger)} }

// UseFaults attaches a fault injector; nil detaches it.
func (d *DataStore) UseFaults(inj *faults.Injector) { d.inj = inj }

// Insert appends rows as one batch identified by batch (typically the
// session ID). With fault injection enabled the whole batch may fail
// transiently; no partial batch is ever stored. Like PutBatch, the
// attempt ledger forgets a batch once its insert succeeds.
func (d *DataStore) Insert(batch string, rows ...Row) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	attempt := d.attempts[batch]
	err := d.inj.InsertError(batch, attempt)
	d.attempts.settle(batch, attempt, err)
	if err != nil {
		return err
	}
	d.rows = append(d.rows, rows...)
	return nil
}

// Len returns the row count.
func (d *DataStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.rows)
}

// AggregateApp sums Value by Key across an app's sessions.
func (d *DataStore) AggregateApp(app string) map[string]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]float64)
	for _, r := range d.rows {
		if r.App == app {
			out[r.Key] += r.Value
		}
	}
	return out
}

// String summarizes the store.
func (d *DataStore) String() string {
	return fmt.Sprintf("datastore(%d rows)", d.Len())
}
