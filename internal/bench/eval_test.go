package bench

import (
	"testing"

	"xmlac/internal/xmark"
	"xmlac/internal/xpath"
)

// BenchmarkEval times xpath.Eval over the 55-query workload on a warm
// structural index, one op per query; -short shrinks the document from
// f=0.05 to f=0.01. Run with -benchmem for allocs per query.
func BenchmarkEval(b *testing.B) {
	f := 0.05
	if testing.Short() {
		f = 0.01
	}
	doc := xmark.Generate(xmark.Options{Factor: f, Seed: 1})
	queries := Queries()
	doc.Index()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xpath.Eval(queries[i%len(queries)], doc); err != nil {
			b.Fatal(err)
		}
	}
}
