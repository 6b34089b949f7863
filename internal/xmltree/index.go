package xmltree

// The structural index is the pre/size encoding behind MonetDB/XQuery's
// staircase join (Grust, van Keulen, Teubner, VLDB 2003), the paper's
// native backend: every element gets its pre-order rank and the rank of the
// last element of its subtree, so "m is a descendant of n" is the interval
// test n.pre < m.pre <= n.end, and a // step is a range scan over the
// postings of one label.

// Index is a document's structural index. It is immutable while readers
// hold it, except that DeleteSubtree clears the ranks of the subtree it
// removes (writers never run beside readers). Ranks count element nodes
// only, from 0 at the root element.
type Index struct {
	// nodes maps a rank to its element; a nil slot is a dead rank, one
	// whose element DeleteSubtree removed since the build.
	nodes []*Node
	// labels interns the element labels to dense ids.
	labels map[string]int32
	// postings holds every label's ranks, ascending, one label after the
	// other; label l's run is postings[offsets[l]:offsets[l+1]].
	postings []int32
	offsets  []int32
	dead     int
}

// Len returns the number of ranks, dead ones included: valid ranks are
// 0 … Len()-1.
func (ix *Index) Len() int32 { return int32(len(ix.nodes)) }

// Node returns the element at rank r, or nil when r is dead.
func (ix *Index) Node(r int32) *Node { return ix.nodes[r] }

// Postings returns the ranks of the elements labeled label, ascending. Dead
// ranks stay in the list; Node reports them as nil. The slice is shared and
// must not be modified.
func (ix *Index) Postings(label string) []int32 {
	l, ok := ix.labels[label]
	if !ok {
		return nil
	}
	return ix.postings[ix.offsets[l]:ix.offsets[l+1]]
}

// Rank returns the element's pre-order rank in its document's current
// Index; it is meaningful only for elements of a document whose Index has
// been taken since the last structural change.
func (n *Node) Rank() int32 { return n.pre }

// End returns the rank of the last element in n's subtree (n's own rank for
// a leaf), under the same conditions as Rank.
func (n *Node) End() int32 { return n.end }

// Index returns the document's structural index, building it on first use
// after a structural change. Concurrent callers share one build.
func (d *Document) Index() *Index {
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if ix := d.idx.Load(); ix != nil {
		return ix
	}
	ix := d.buildIndex()
	d.idx.Store(ix)
	return ix
}

// dropIndex discards the index after a structural change; the next Index
// call rebuilds it.
func (d *Document) dropIndex() {
	if d.idx.Load() != nil {
		d.idx.Store(nil)
	}
}

// killRanks marks the ranks of a removed element subtree dead, so the
// deleted nodes become garbage while the index stays in use. Once dead
// ranks pass half of the index it is dropped: past that point the scans
// skip more cleared slots than a rebuild costs.
func (d *Document) killRanks(n *Node) {
	ix := d.idx.Load()
	if ix == nil || n.Kind != Element {
		return
	}
	clear(ix.nodes[n.pre : n.end+1])
	ix.dead += int(n.end-n.pre) + 1
	if 2*ix.dead > len(ix.nodes) {
		d.idx.Store(nil)
	}
}

// buildIndex ranks the elements in pre-order, counting each label's
// elements on the way, then fills the postings in one pass over the ranks.
func (d *Document) buildIndex() *Index {
	ix := &Index{labels: map[string]int32{}}
	// len(byID) counts text nodes too: an upper bound, trimmed below.
	nodes := make([]*Node, 0, len(d.byID))
	labelOf := make([]int32, 0, len(d.byID))
	var counts []int32
	var rank func(n *Node)
	rank = func(n *Node) {
		n.pre = int32(len(nodes))
		nodes = append(nodes, n)
		l, ok := ix.labels[n.Label]
		if !ok {
			l = int32(len(counts))
			ix.labels[n.Label] = l
			counts = append(counts, 0)
		}
		counts[l]++
		labelOf = append(labelOf, l)
		for _, c := range n.children {
			if c.Kind == Element {
				rank(c)
			}
		}
		n.end = int32(len(nodes)) - 1
	}
	if d.root != nil {
		rank(d.root)
	}
	ix.nodes = append([]*Node(nil), nodes...)
	ix.offsets = make([]int32, len(counts)+1)
	for l, c := range counts {
		ix.offsets[l+1] = ix.offsets[l] + c
	}
	next := counts[:0]
	next = append(next, ix.offsets[:len(counts)]...)
	ix.postings = make([]int32, len(ix.nodes))
	for r, l := range labelOf {
		ix.postings[next[l]] = int32(r)
		next[l]++
	}
	return ix
}
