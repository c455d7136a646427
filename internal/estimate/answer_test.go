package estimate

import (
	"fmt"
	"strconv"
	"testing"
)

// grammarCases are the grammar's accepted and refused queries; they also seed
// FuzzParseQuery.
var grammarCases = []struct {
	q    string
	want Query // zero Kind: refused
}{
	{"avg", Query{Kind: "avg"}},
	{"sum", Query{Kind: "sum"}},
	{"median", Query{Kind: "median", Q: 0.5}},
	{"distinct", Query{Kind: "distinct"}},
	{"count:0..499", Query{Kind: "count", Lo: 0, Hi: 499}},
	{"fraction:-5..+7", Query{Kind: "fraction", Lo: -5, Hi: 7}},
	{"count:3..3", Query{Kind: "count", Lo: 3, Hi: 3}},
	{"quantile:0.9", Query{Kind: "quantile", Q: 0.9}},
	{"quantile:1", Query{Kind: "quantile", Q: 1}},
	{"topk:5", Query{Kind: "topk", K: 5}},
	{"groupby:1000", Query{Kind: "groupby", K: 1000}},
	{"", Query{}},
	{"explode", Query{}},
	{"avg:3", Query{}},
	{"median:0.5", Query{}},
	{"count", Query{}},
	{"count:9..1", Query{}},
	{"count:1..", Query{}},
	{"count:a..b", Query{}},
	{"fraction:0-499", Query{}},
	{"quantile:bogus", Query{}},
	{"quantile:1.5", Query{}},
	{"quantile:NaN", Query{}},
	{"quantile:-0.1", Query{}},
	{"topk:0", Query{}},
	{"topk:x", Query{}},
	{"groupby:-3", Query{}},
	{"groupby:", Query{}},
}

func TestParseQuery(t *testing.T) {
	for _, c := range grammarCases {
		got, err := ParseQuery(c.q)
		if c.want.Kind == "" {
			if err == nil {
				t.Errorf("%q accepted as %+v", c.q, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("%q: %+v, %v; want %+v", c.q, got, err, c.want)
		}
	}
	if q, _ := ParseQuery("count:10..20"); !q.Range() || q.Sketched() || !q.Pred()(10) || !q.Pred()(20) || q.Pred()(21) {
		t.Errorf("count:10..20 is a range over [10, 20]: %+v", q)
	}
	if q, _ := ParseQuery("topk:3"); q.Range() || !q.Sketched() {
		t.Errorf("topk:3 reads the sketch union and is no range: %+v", q)
	}
}

// render writes q back in the grammar.
func render(q Query) string {
	switch q.Kind {
	case "count", "fraction":
		return fmt.Sprintf("%s:%d..%d", q.Kind, q.Lo, q.Hi)
	case "quantile":
		return "quantile:" + strconv.FormatFloat(q.Q, 'g', -1, 64)
	case "topk", "groupby":
		return fmt.Sprintf("%s:%d", q.Kind, q.K)
	}
	return q.Kind
}

// FuzzParseQuery: the grammar's reader never panics, and every query it
// accepts re-renders to a query it reads back as the same one.
func FuzzParseQuery(f *testing.F) {
	for _, c := range grammarCases {
		f.Add(c.q)
	}
	f.Fuzz(func(t *testing.T, s string) {
		q, err := ParseQuery(s)
		if err != nil {
			return
		}
		again, err := ParseQuery(render(q))
		if err != nil || again != q {
			t.Fatalf("%q parsed as %+v re-renders as %q: %+v, %v", s, q, render(q), again, err)
		}
	})
}
