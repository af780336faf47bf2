package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime/pprof"
	"testing"
)

func writeHeapProfile(w io.Writer) error {
	return pprof.Lookup("heap").WriteTo(w, 0)
}

// pbw is a minimal protobuf writer used to hand-build profile payloads, so
// the decoder is tested against independently constructed bytes rather than
// its own output.
type pbw struct{ buf bytes.Buffer }

func (w *pbw) varint(v uint64) {
	for v >= 0x80 {
		w.buf.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.buf.WriteByte(byte(v))
}

func (w *pbw) tag(field, wire int) { w.varint(uint64(field)<<3 | uint64(wire)) }

func (w *pbw) intField(field int, v int64) {
	w.tag(field, 0)
	w.varint(uint64(v))
}

func (w *pbw) msg(field int, body []byte) {
	w.tag(field, 2)
	w.varint(uint64(len(body)))
	w.buf.Write(body)
}

func (w *pbw) packed(field int, vs ...int64) {
	var inner pbw
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	w.msg(field, inner.buf.Bytes())
}

func (w *pbw) unpacked(field int, vs ...int64) {
	for _, v := range vs {
		w.intField(field, v)
	}
}

func valueType(typ, unit int64) []byte {
	var w pbw
	w.intField(1, typ)
	w.intField(2, unit)
	return w.buf.Bytes()
}

func location(id int64, fnIDs ...int64) []byte {
	var w pbw
	w.intField(1, id)
	for _, fn := range fnIDs {
		var line pbw
		line.intField(1, fn)
		line.intField(2, 42) // line number, ignored by the decoder
		w.msg(4, line.buf.Bytes())
	}
	return w.buf.Bytes()
}

func function(id, name int64) []byte {
	var w pbw
	w.intField(1, id)
	w.intField(2, name)
	return w.buf.Bytes()
}

// buildTestProfile encodes a two-value (samples/count, cpu/nanoseconds)
// profile with an inlined frame. packed selects packed vs one-at-a-time
// encoding for the repeated sample fields — both are legal on the wire.
func buildTestProfile(packed bool) []byte {
	var w pbw
	w.msg(1, valueType(1, 2)) // samples/count
	w.msg(1, valueType(3, 4)) // cpu/nanoseconds

	sample := func(locs []int64, vals []int64) {
		var s pbw
		if packed {
			s.packed(1, locs...)
			s.packed(2, vals...)
		} else {
			s.unpacked(1, locs...)
			s.unpacked(2, vals...)
		}
		w.msg(2, s.buf.Bytes())
	}
	sample([]int64{1, 2, 3}, []int64{5, 50_000_000})
	sample([]int64{4, 3}, []int64{3, 30_000_000})
	sample([]int64{2, 3}, []int64{2, 20_000_000})

	w.msg(4, location(1, 1))
	w.msg(4, location(2, 2))
	w.msg(4, location(3, 3))
	w.msg(4, location(4, 1, 2)) // main.hot inlined into main.caller

	w.msg(5, function(1, 5))
	w.msg(5, function(2, 6))
	w.msg(5, function(3, 7))

	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds", "main.hot", "main.caller", "runtime.main"} {
		w.msg(6, []byte(s))
	}

	w.intField(9, 1700000000_000000000) // time_nanos
	w.intField(10, 1_000_000_000)       // duration_nanos
	w.msg(11, valueType(3, 4))          // period_type cpu/nanoseconds
	w.intField(12, 10_000_000)          // period
	return w.buf.Bytes()
}

func TestParseAndAggregate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		packed bool
		gz     bool
	}{
		{"packed", true, false},
		{"unpacked", false, false},
		{"gzipped", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := buildTestProfile(tc.packed)
			if tc.gz {
				var buf bytes.Buffer
				zw := gzip.NewWriter(&buf)
				if _, err := zw.Write(data); err != nil {
					t.Fatal(err)
				}
				if err := zw.Close(); err != nil {
					t.Fatal(err)
				}
				data = buf.Bytes()
			}
			p, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if got, want := len(p.Samples), 3; got != want {
				t.Fatalf("samples = %d, want %d", got, want)
			}
			if got, want := len(p.SampleTypes), 2; got != want {
				t.Fatalf("sample types = %d, want %d", got, want)
			}
			if p.SampleTypes[1] != (ValueType{Type: "cpu", Unit: "nanoseconds"}) {
				t.Fatalf("sample type[1] = %+v", p.SampleTypes[1])
			}
			if p.PeriodType.Type != "cpu" || p.Period != 10_000_000 {
				t.Fatalf("period = %+v / %d", p.PeriodType, p.Period)
			}
			if p.DurationNanos != 1_000_000_000 {
				t.Fatalf("duration = %d", p.DurationNanos)
			}

			if got, want := p.ValueIndex("cpu"), 1; got != want {
				t.Fatalf("ValueIndex(cpu) = %d, want %d", got, want)
			}
			if got, want := p.ValueIndex("nope"), 1; got != want {
				t.Fatalf("ValueIndex fallback = %d, want last index %d", got, want)
			}

			tab := Aggregate(p, "cpu", 1, 0)
			if tab.Samples != 3 || tab.Total != 100_000_000 {
				t.Fatalf("samples/total = %d/%d", tab.Samples, tab.Total)
			}
			if tab.Unit != "nanoseconds" {
				t.Fatalf("unit = %q", tab.Unit)
			}
			want := []FuncStat{
				{Name: "main.hot", Flat: 80_000_000, FlatPct: 80, Cum: 80_000_000, CumPct: 80},
				{Name: "main.caller", Flat: 20_000_000, FlatPct: 20, Cum: 100_000_000, CumPct: 100},
				{Name: "runtime.main", Flat: 0, FlatPct: 0, Cum: 100_000_000, CumPct: 100},
			}
			if len(tab.Funcs) != len(want) {
				t.Fatalf("rows = %+v", tab.Funcs)
			}
			for i, w := range want {
				if tab.Funcs[i] != w {
					t.Errorf("row %d = %+v, want %+v", i, tab.Funcs[i], w)
				}
			}
		})
	}
}

func TestAggregateTopN(t *testing.T) {
	p, err := Parse(buildTestProfile(true))
	if err != nil {
		t.Fatal(err)
	}
	// topN=1 keeps the union of top-1 by flat (main.hot) and top-1 by cum
	// (main.caller, which ties runtime.main on cum but wins on flat).
	tab := Aggregate(p, "cpu", 1, 1)
	if len(tab.Funcs) != 2 {
		t.Fatalf("rows = %+v", tab.Funcs)
	}
	if tab.Funcs[0].Name != "main.hot" || tab.Funcs[1].Name != "main.caller" {
		t.Fatalf("rows = %+v", tab.Funcs)
	}
}

func TestParseSampleCountColumn(t *testing.T) {
	p, err := Parse(buildTestProfile(true))
	if err != nil {
		t.Fatal(err)
	}
	tab := Aggregate(p, "cpu", 0, 0)
	if tab.Total != 10 || tab.Unit != "count" {
		t.Fatalf("total/unit = %d/%q", tab.Total, tab.Unit)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Error("corrupt gzip: want error")
	}
	full := buildTestProfile(true)
	if _, err := Parse(full[:len(full)-3]); err == nil {
		t.Error("truncated payload: want error")
	}
	// A sample whose value count disagrees with the sample types must fail
	// rather than panic the aggregator later.
	var w pbw
	w.msg(1, valueType(1, 2))
	var s pbw
	s.packed(1, 1)
	s.packed(2, 1, 2, 3)
	w.msg(2, s.buf.Bytes())
	for _, str := range []string{"", "samples", "count"} {
		w.msg(6, []byte(str))
	}
	if _, err := Parse(w.buf.Bytes()); err == nil {
		t.Error("mismatched value arity: want error")
	}
}

// TestParseRealProfile decodes an actual runtime/pprof heap profile to keep
// the hand-rolled decoder honest against the real encoder.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	_ = sink
	if err := writeHeapProfile(&buf); err != nil {
		t.Fatalf("heap profile: %v", err)
	}
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.SampleTypes) == 0 || len(p.Functions) == 0 {
		t.Fatalf("decoded profile is empty: %d sample types, %d functions", len(p.SampleTypes), len(p.Functions))
	}
	tab := Fold(p, "heap", 10)
	if tab.Total <= 0 || len(tab.Funcs) == 0 {
		t.Fatalf("heap table empty: %+v", tab)
	}
	if tab.Unit != "bytes" {
		t.Fatalf("heap unit = %q, want bytes", tab.Unit)
	}
}

// heapProfile is a two-function heap profile with the runtime's four
// columns; inuse is the in-use object count of its first sample, at 1 KiB
// each, and its second sample holds nothing live.
func heapProfile(inuse int64) *Profile {
	return &Profile{
		SampleTypes: []ValueType{
			{Type: "alloc_objects", Unit: "count"}, {Type: "alloc_space", Unit: "bytes"},
			{Type: "inuse_objects", Unit: "count"}, {Type: "inuse_space", Unit: "bytes"},
		},
		Samples: []Sample{
			{LocationIDs: []uint64{1, 2}, Values: []int64{4, 4096, inuse, inuse << 10}},
			{LocationIDs: []uint64{2}, Values: []int64{1, 512, 0, 0}},
		},
		Locations: map[uint64]*Location{1: {ID: 1, FunctionIDs: []uint64{1}}, 2: {ID: 2, FunctionIDs: []uint64{2}}},
		Functions: map[uint64]*Function{1: {ID: 1, Name: "main.alloc"}, 2: {ID: 2, Name: "main.main"}},
	}
}

// TestFoldHeapWithoutLiveSamples: a heap profile whose in-use columns are
// zero, as when the last GC found no sampled object live, folds its
// allocated bytes and says so; one with live samples folds in-use bytes.
func TestFoldHeapWithoutLiveSamples(t *testing.T) {
	tab := Fold(heapProfile(0), "heap", 10)
	if tab.Type != "alloc_space" || tab.Unit != "bytes" || tab.Total != 4608 || tab.Samples != 2 || len(tab.Funcs) != 2 {
		t.Fatalf("heap table without live samples = %+v, want alloc_space over 4608 bytes in 2 functions", tab)
	}
	if tab.Funcs[0].Name != "main.alloc" || tab.Funcs[0].Flat != 4096 || tab.Funcs[1].Cum != 4608 {
		t.Fatalf("rows = %+v", tab.Funcs)
	}
	if tab := Fold(heapProfile(2), "heap", 10); tab.Type != "inuse_space" || tab.Total != 2048 {
		t.Fatalf("heap table with live samples = %+v, want inuse_space over 2048 bytes", tab)
	}
	// Nothing allocated either: the preferred column stays, empty.
	empty := heapProfile(0)
	for _, s := range empty.Samples {
		clear(s.Values)
	}
	if tab := Fold(empty, "heap", 10); tab.Type != "inuse_space" || tab.Total != 0 {
		t.Fatalf("empty heap table = %+v, want inuse_space at 0", tab)
	}
	// Only heap tables fall back.
	if tab := Fold(heapProfile(0), "goroutine", 10); tab.Type != "inuse_space" || tab.Total != 0 {
		t.Fatalf("goroutine fold of the same profile = %+v, want its last column at 0", tab)
	}
}
