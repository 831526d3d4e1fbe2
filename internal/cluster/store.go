package cluster

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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

// ossShard is one lock domain of the object store: its own blob map,
// attempt ledger, and mutex. Keys are routed by a stable hash so a key
// always lands in the same shard regardless of upload order.
type ossShard struct {
	mu       sync.Mutex
	blobs    map[string][]byte
	attempts attemptLedger
}

// ObjectStore is the unstructured blob store EXIST uploads raw sessions
// to (the OSS stand-in of §4): traced data goes straight to the object
// store instead of node-local files, avoiding node memory and file I/O.
//
// The store is sharded by key hash (DESIGN.md §15): each shard has its
// own map and mutex, and the put and failure counters are atomics, so
// parallel uploads from concurrently running node engines contend only
// within a shard and counter reads never race. Storing a blob is one map
// write; Bytes sums the stored blobs when asked. With one shard the
// behavior is identical to the historical single-map store.
//
// PutBatch is fault-aware: with an injector that can fail puts attached,
// attempts can fail with transient errors (the control plane retries
// with backoff). Without one, PutBatch never fails and never reads the
// attempt ledger.
type ObjectStore struct {
	shards   []ossShard
	puts     atomic.Int64
	failures atomic.Int64
	inj      *faults.Injector
	// putsFail caches whether inj can fail a put at all.
	putsFail bool
}

// NewObjectStore returns an empty single-shard store.
func NewObjectStore() *ObjectStore { return NewObjectStoreShards(1) }

// NewObjectStoreShards returns an empty store with n lock shards
// (n < 1 is treated as 1).
func NewObjectStoreShards(n int) *ObjectStore { return newObjectStore(n, 0) }

// newObjectStore returns an empty store with n lock shards whose blob
// maps are sized to hold blobs keys in all without growing.
func newObjectStore(n, blobs int) *ObjectStore {
	if n < 1 {
		n = 1
	}
	o := &ObjectStore{shards: make([]ossShard, n)}
	for i := range o.shards {
		o.shards[i].blobs = make(map[string][]byte, blobs/n)
		o.shards[i].attempts = make(attemptLedger)
	}
	return o
}

func (o *ObjectStore) shardFor(key string) *ossShard {
	return &o.shards[hashName(key)%uint64(len(o.shards))]
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
// upload ledger, and each blob still lands under its own key — possibly
// across several shards. This is the wire-level amortization behind
// Config.UploadBatch.
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
	if o.putsFail {
		if err := o.rollPut(batchKey); err != nil {
			o.failures.Add(1)
			return err
		}
	}
	for i, key := range keys {
		s := o.shardFor(key)
		s.mu.Lock()
		s.blobs[key] = blobs[i]
		s.mu.Unlock()
	}
	o.puts.Add(1)
	return nil
}

// rollPut draws the injected fault of the batch key's next attempt and
// settles its attempt ledger.
func (o *ObjectStore) rollPut(batchKey string) error {
	bs := o.shardFor(batchKey)
	bs.mu.Lock()
	defer bs.mu.Unlock()
	attempt := bs.attempts[batchKey]
	err := o.inj.PutError(batchKey, attempt)
	bs.attempts.settle(batchKey, attempt, err)
	return err
}

// Get retrieves a blob.
func (o *ObjectStore) Get(key string) ([]byte, bool) {
	s := o.shardFor(key)
	s.mu.Lock()
	b, ok := s.blobs[key]
	s.mu.Unlock()
	return b, ok
}

// Delete removes a blob, reporting whether it existed.
func (o *ObjectStore) Delete(key string) bool {
	s := o.shardFor(key)
	s.mu.Lock()
	_, ok := s.blobs[key]
	delete(s.blobs, key)
	s.mu.Unlock()
	return ok
}

// List returns all keys with the prefix, sorted. The merge across shards
// is order-insensitive because the result is sorted, so output is
// identical for any shard count.
func (o *ObjectStore) List(prefix string) []string {
	var keys []string
	for i := range o.shards {
		s := &o.shards[i]
		s.mu.Lock()
		for k := range s.blobs {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				keys = append(keys, k)
			}
		}
		s.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// Bytes returns the stored volume, summed over the blobs each shard holds
// under its lock.
func (o *ObjectStore) Bytes() int64 {
	var n int64
	for i := range o.shards {
		s := &o.shards[i]
		s.mu.Lock()
		for _, b := range s.blobs {
			n += int64(len(b))
		}
		s.mu.Unlock()
	}
	return n
}

// Puts returns the number of successful uploads.
func (o *ObjectStore) Puts() int64 { return o.puts.Load() }

// Failures returns the number of failed upload attempts.
func (o *ObjectStore) Failures() int64 { return o.failures.Load() }

// Row is one structured record in the processing store.
type Row struct {
	// App, Node and Session identify the source.
	App, Node, Session string
	// Key and Value are the datum (e.g. a function name and its
	// occurrence count).
	Key   string
	Value float64
}

// dsShard is one lock domain of the data store, routed by batch key so a
// batch's rows stay contiguous within their shard.
type dsShard struct {
	mu       sync.Mutex
	rows     []Row
	attempts attemptLedger
}

// DataStore is the structured, queryable store decoded results land in
// (the ODPS stand-in of §4); engineers query it for analysis and
// reproduction. Insert is fault-aware under an attached injector, like
// ObjectStore.Put. Like the object store it is sharded by batch key; all
// query paths sort or aggregate, so results do not depend on the shard
// count.
type DataStore struct {
	shards   []dsShard
	failures atomic.Int64
	inj      *faults.Injector
}

// NewDataStore returns an empty single-shard store.
func NewDataStore() *DataStore { return NewDataStoreShards(1) }

// NewDataStoreShards returns an empty store with n lock shards
// (n < 1 is treated as 1).
func NewDataStoreShards(n int) *DataStore {
	if n < 1 {
		n = 1
	}
	d := &DataStore{shards: make([]dsShard, n)}
	for i := range d.shards {
		d.shards[i].attempts = make(attemptLedger)
	}
	return d
}

func (d *DataStore) shardFor(batch string) *dsShard {
	return &d.shards[hashName(batch)%uint64(len(d.shards))]
}

// UseFaults attaches a fault injector; nil detaches it.
func (d *DataStore) UseFaults(inj *faults.Injector) { d.inj = inj }

// Insert appends rows as one batch identified by batch (typically the
// session ID). With fault injection enabled the whole batch may fail
// transiently; no partial batch is ever stored. Like PutBatch, the
// attempt ledger forgets a batch once its insert succeeds.
func (d *DataStore) Insert(batch string, rows ...Row) error {
	s := d.shardFor(batch)
	s.mu.Lock()
	attempt := s.attempts[batch]
	err := d.inj.InsertError(batch, attempt)
	s.attempts.settle(batch, attempt, err)
	if err != nil {
		s.mu.Unlock()
		d.failures.Add(1)
		return err
	}
	s.rows = append(s.rows, rows...)
	s.mu.Unlock()
	return nil
}

// Len returns the row count.
func (d *DataStore) Len() int {
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		n += len(s.rows)
		s.mu.Unlock()
	}
	return n
}

// Failures returns the number of failed insert attempts.
func (d *DataStore) Failures() int64 { return d.failures.Load() }

// QueryApp returns all rows for an app, ordered by (session, key).
func (d *DataStore) QueryApp(app string) []Row {
	var out []Row
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for _, r := range s.rows {
			if r.App == app {
				out = append(out, r)
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Session != out[j].Session {
			return out[i].Session < out[j].Session
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// AggregateApp sums Value by Key across an app's sessions.
func (d *DataStore) AggregateApp(app string) map[string]float64 {
	out := make(map[string]float64)
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for _, r := range s.rows {
			if r.App == app {
				out[r.Key] += r.Value
			}
		}
		s.mu.Unlock()
	}
	return out
}

// String summarizes the store.
func (d *DataStore) String() string {
	return fmt.Sprintf("datastore(%d rows)", d.Len())
}
