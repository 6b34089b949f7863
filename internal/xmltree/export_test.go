package xmltree

// BuildIndex builds a fresh structural index without publishing it, for
// benchmarks that time full rebuilds.
func (d *Document) BuildIndex() *Index { return d.buildIndex() }
