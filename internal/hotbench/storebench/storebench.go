// Package storebench is the hot-path fixture for one object-store put: a
// warm store shaped like the fleet's (eight shards, a fault injector that
// never fails a put) into which each op puts one session blob under a key
// the store does not hold, keyed as the upload path keys a batch of one.
// It lives apart from package hotbench because it imports the cluster,
// whose dependencies' own tests import hotbench.
package storebench

import (
	"strconv"

	"exist/internal/cluster"
	"exist/internal/faults"
)

// Fixture shape: warmKeys blobs stay in the store throughout; freshKeys
// distinct keys are put, one per op, before Reset deletes them again so
// the store's size stays bounded.
const (
	shards    = 8
	warmKeys  = 64 << 10
	freshKeys = 64 << 10
)

// Bench is a warm object store taking one fresh blob per op.
type Bench struct {
	oss   *cluster.ObjectStore
	fresh []string
	next  int
	blob  []byte
	keys  [1]string
	blobs [1][]byte
}

// New fills the store with its warm blobs, builds the fresh keys and runs
// one full pass of them, so the shard maps have reached their steady
// size before the first timed op.
func New() *Bench {
	b := &Bench{oss: cluster.NewObjectStoreShards(shards), blob: []byte("store-hot/node-0")}
	b.oss.UseFaults(faults.New(faults.Config{Seed: 1, GrayNodeProb: 0.01}))
	for i := 0; i < warmKeys; i++ {
		b.put(sessionKey("warm", i))
	}
	b.fresh = make([]string, freshKeys)
	for i := range b.fresh {
		b.fresh[i] = sessionKey("fresh", i)
	}
	for !b.Put() {
	}
	b.Reset()
	return b
}

// sessionKey shapes key i like a session's object key: eight node
// sessions per request.
func sessionKey(req string, i int) string {
	return "sessions/" + req + "-" + strconv.Itoa(i/8) + "/node-" + strconv.Itoa(i)
}

func (b *Bench) put(key string) {
	b.keys[0], b.blobs[0] = key, b.blob
	if err := b.oss.PutBatch(key, b.keys[:], b.blobs[:]); err != nil {
		panic(err)
	}
}

// Put is one op: a one-blob PutBatch of the next fresh key. It reports
// whether the fresh keys are used up; Reset must run before the next Put.
func (b *Bench) Put() (spent bool) {
	b.put(b.fresh[b.next])
	b.next++
	return b.next == len(b.fresh)
}

// Reset deletes the fresh blobs put so far, returning the store to its
// warm contents.
func (b *Bench) Reset() {
	for _, key := range b.fresh[:b.next] {
		b.oss.Delete(key)
	}
	b.next = 0
}
