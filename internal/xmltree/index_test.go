package xmltree_test

import (
	"fmt"
	"testing"
	"unsafe"

	"xmlac/internal/xmark"
	"xmlac/internal/xmltree"
)

// TestNodeSize pins the node at 96 bytes: the structural index keeps its
// ranks in padding, so indexing costs the tree no memory per node.
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(xmltree.Node{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(Node{}) = %d, want 96", got)
	}
}

// TestIndexRanksAndPostings: ranks are pre-order over elements only, end
// ranks close each subtree, and postings list a label's ranks ascending.
func TestIndexRanksAndPostings(t *testing.T) {
	doc, err := xmltree.ParseString(`<a>x<b><c/>y<b/></b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := doc.Index()
	var got []string
	for r := int32(0); r < ix.Len(); r++ {
		n := ix.Node(r)
		got = append(got, fmt.Sprintf("%s%d-%d", n.Label, n.Rank(), n.End()))
	}
	if want := "[a0-4 b1-3 c2-2 b3-3 c4-4]"; fmt.Sprint(got) != want {
		t.Fatalf("ranks = %v, want %s", got, want)
	}
	if got := fmt.Sprint(ix.Postings("b"), ix.Postings("c"), ix.Postings("zz")); got != "[1 3] [2 4] []" {
		t.Fatalf("postings = %s", got)
	}
}

// TestIndexSurvivesDeletesUntilHalfDead: a delete clears its subtree's
// ranks in place; once dead ranks pass half of the index, the next Index
// call rebuilds. Inserts always drop the index.
func TestIndexSurvivesDeletesUntilHalfDead(t *testing.T) {
	doc, err := xmltree.ParseString(`<r><a><x/></a><b/><c/><d/><e/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := doc.Index()
	a, b := ix.Node(1), ix.Node(3)
	if err := doc.DeleteSubtree(a); err != nil { // 2 of 7 ranks dead
		t.Fatal(err)
	}
	if doc.Index() != ix || ix.Node(1) != nil || ix.Node(2) != nil || ix.Node(3) != b {
		t.Fatal("a delete below the threshold must keep the index and clear exactly its ranks")
	}
	if err := doc.DeleteSubtree(b); err != nil { // 3 of 7
		t.Fatal(err)
	}
	if doc.Index() != ix {
		t.Fatal("3 dead ranks of 7 is below half; the index must stay")
	}
	if err := doc.DeleteSubtree(ix.Node(4)); err != nil { // 4 of 7
		t.Fatal(err)
	}
	ix2 := doc.Index()
	if ix2 == ix || ix2.Len() != 3 {
		t.Fatalf("past half dead the index must be rebuilt over the 3 live elements, got %d ranks", ix2.Len())
	}
	if _, err := doc.InsertSubtree(doc.Root(), xmltree.NewSubtree("f")); err != nil {
		t.Fatal(err)
	}
	if ix3 := doc.Index(); ix3 == ix2 || ix3.Len() != 4 {
		t.Fatal("an insert must drop the index")
	}
}

// BenchmarkIndexBuild times a full structural-index build, the cost a
// reader pays once after an insert; -short runs f=0.01 only.
func BenchmarkIndexBuild(b *testing.B) {
	factors := []float64{0.01, 0.05}
	if testing.Short() {
		factors = factors[:1]
	}
	for _, f := range factors {
		doc := xmark.Generate(xmark.Options{Factor: f, Seed: 1})
		b.Run(fmt.Sprintf("f=%g", f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				doc.BuildIndex()
			}
		})
	}
}
