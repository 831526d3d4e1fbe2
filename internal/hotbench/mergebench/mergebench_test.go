package mergebench

import "testing"

// BenchmarkMergeHot measures one cluster-level merge of ten workers'
// decodes. It is the merge_hot row of existbench -benchjson.
func BenchmarkMergeHot(b *testing.B) {
	mb := New()
	if a := mb.Merge(); a.DistinctFuncs == 0 {
		b.Fatal("fixture merged no functions")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb.Merge()
	}
}
