package storebench

import "testing"

// BenchmarkStorePut measures one 1-blob PutBatch of a fresh key into a
// warm 8-shard object store; the periodic Reset runs outside the timer.
// It is the store_put row of existbench -benchjson.
func BenchmarkStorePut(b *testing.B) {
	sb := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sb.Put() {
			b.StopTimer()
			sb.Reset()
			b.StartTimer()
		}
	}
}
