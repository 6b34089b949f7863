package xpath

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"xmlac/internal/hospital"
	"xmlac/internal/xmltree"
)

// mutate flips, inserts or deletes bytes of a seed string.
func mutate(r *rand.Rand, s string) string {
	b := []byte(s)
	n := 1 + r.Intn(4)
	for i := 0; i < n && len(b) > 0; i++ {
		switch r.Intn(3) {
		case 0:
			b[r.Intn(len(b))] = byte(r.Intn(128))
		case 1:
			pos := r.Intn(len(b) + 1)
			b = append(b[:pos], append([]byte{byte(r.Intn(128))}, b[pos:]...)...)
		case 2:
			pos := r.Intn(len(b))
			b = append(b[:pos], b[pos+1:]...)
		}
	}
	return string(b)
}

var fuzzSeeds = []string{
	"//patient[treatment]/name",
	`//regular[med = "celecoxib"]`,
	"//a[b > 1000 and .//c]",
	"/a/*/b[c[d = 'x']]",
	"  ",
	"////",
	"[[[]]]",
}

// TestQuickParseNeverPanics: Parse returns a value or an error on arbitrary
// input — it must never panic. Successful parses must survive a
// print-reparse round trip.
func TestQuickParseNeverPanics(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var in string
		if r.Intn(3) == 0 {
			raw := make([]byte, r.Intn(40))
			for i := range raw {
				raw[i] = byte(r.Intn(256))
			}
			in = string(raw)
		} else {
			in = mutate(r, fuzzSeeds[r.Intn(len(fuzzSeeds))])
		}
		p, err := Parse(in)
		if err != nil {
			return true
		}
		// A successful parse must round trip.
		p2, err := Parse(p.String())
		return err == nil && p2.String() == p.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzEval: whatever input parses evaluates to the same nodes, in the same
// order, through the structural index as through the tree walker, and
// never panics. The seed corpus in testdata/fuzz/FuzzEval holds fuzzSeeds
// and the evaluation's 55-query workload.
func FuzzEval(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	doc := fuzzHospital()
	f.Fuzz(func(t *testing.T, in string) {
		p, err := Parse(in)
		if err != nil {
			return
		}
		if err := sameAsWalker(p, doc); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzHospital is FuzzEval's fixed document: a generated hospital after one
// subtree insert and one delete, so the index holds a dead rank range and
// nodes whose ids run against document order.
func fuzzHospital() *xmltree.Document {
	doc := hospital.Generate(hospital.GenOptions{Seed: 7, Departments: 2, PatientsPerDept: 6, StaffPerDept: 2})
	doc.Index()
	patients, _ := Eval(MustParse("//patients"), doc)
	pats, _ := Eval(MustParse("//patient"), doc)
	if _, err := doc.InsertSubtree(patients[0], copySubtree(pats[len(pats)-1])); err != nil {
		panic(err)
	}
	doc.Index()
	if err := doc.DeleteSubtree(pats[1]); err != nil {
		panic(err)
	}
	return doc
}

// fuzzCorpus reads FuzzEval's committed seed corpus.
func fuzzCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEval", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, s)
	}
	return out
}
