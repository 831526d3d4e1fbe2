package litebench

import "testing"

// BenchmarkLiteSession measures one Lite session end to end on a warm
// cluster: request filed, session opened and timed out, blob uploaded
// through the batch path, request completed and deleted. It is the
// lite_session row of existbench -benchjson.
func BenchmarkLiteSession(b *testing.B) {
	lb := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lb.Session()
	}
}
