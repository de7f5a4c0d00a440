package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestAppendEditsJSON: the documented grammar decodes to the edits
// encoding/json reads from it, and every departure from it is a 400 naming
// the edit and the key.
func TestAppendEditsJSON(t *testing.T) {
	for _, tc := range []struct {
		body string
		want []IngestEdit
	}{
		{`[]`, nil},
		{" \t\n[ ] \r\n", nil},
		{`[{"src":1,"dst":2}]`, []IngestEdit{{Src: 1, Dst: 2}}},
		{`[{"dst":2,"src":1},{"delete":true,"time":-9,"weight":2.5e-1,"dst":0,"src":2147483647}]`,
			[]IngestEdit{{Src: 1, Dst: 2}, {Src: 2147483647, Dst: 0, Weight: 0.25, Time: -9, Delete: true}}},
		{`[ { "src" : -0 , "dst" : 7 , "weight" : 3 , "delete" : false } ]`, []IngestEdit{{Src: 0, Dst: 7, Weight: 3}}},
	} {
		got, err := AppendEditsJSON(nil, []byte(tc.body))
		if err != nil || !slices.Equal(got, tc.want) {
			t.Errorf("AppendEditsJSON(%s) = %+v, %v; want %+v", tc.body, got, err, tc.want)
		}
		var oracle []IngestEdit
		if err := json.Unmarshal([]byte(tc.body), &oracle); err != nil || !slices.Equal(oracle, tc.want) {
			t.Errorf("encoding/json reads %s as %+v, %v; want %+v", tc.body, oracle, err, tc.want)
		}
	}

	for _, tc := range []struct{ body, want string }{
		{`[{"dst":5}]`, `edit 0: missing key "src"`},
		{`[{"src":1,"dst":2},{"source":1,"dest":2}]`, `edit 1: unknown key "source" (the keys are src, dst, weight, time and delete)`},
		{`[{"SRC":3,"Dst":4}]`, `edit 0: unknown key "SRC" (the keys are src, dst, weight, time and delete)`},
		{`[{"src":3}]`, `edit 0: missing key "dst"`},
		{`[{"src":1,"dst":2,"src":3}]`, `edit 0: duplicate key "src"`},
		{`[{"\u0073rc":1,"dst":2}]`, `edit 0: key at offset 2 is not a plain string`},
		{`[{"src":null,"dst":2}]`, `edit 0: key "src": want a number`},
		{`[{"src":1.0,"dst":2}]`, `edit 0: key "src": want an integer`},
		{`[{"src":1e3,"dst":2}]`, `edit 0: key "src": want an integer`},
		{`[{"src":2147483648,"dst":2}]`, `edit 0: key "src": 2147483648 does not fit an int32`},
		{`[{"src":1,"dst":2,"time":9223372036854775808}]`, `edit 0: key "time": 9223372036854775808 does not fit an int64`},
		{`[{"src":1,"dst":2,"weight":1e39}]`, `edit 0: key "weight": 1e39 does not fit a float32`},
		{`[{"src":1,"dst":2,"weight":.5}]`, `edit 0: key "weight": want a number`},
		{`[{"src":1,"dst":2,"weight":1.}]`, `edit 0: key "weight": want digits after '.'`},
		{`[{"src":1,"dst":2,"weight":1e}]`, `edit 0: key "weight": want digits in the exponent`},
		{`[{"src":01,"dst":2}]`, `edit 0: expected ',' or '}' after a value`},
		{`[{"src":1,"dst":2,"delete":1}]`, `edit 0: key "delete": want true or false`},
		{`[{"src":1,"dst":2}`, `edit 0: expected ',' or ']' after the edit (the body ends first)`},
		{`[{"src":1,"dst":2},]`, `edit 1: expected '{' to open the edit`},
		{`[{"src":1 "dst":2}]`, `edit 0: expected ',' or '}' after a value`},
		{`[{"src" 1}]`, `edit 0: expected ':' after key "src"`},
		{`{"src":1,"dst":2}`, `expected '[' to open the edit array, at offset 0`},
		{`null`, `expected '[' to open the edit array, at offset 0`},
		{``, `expected '[' to open the edit array (the body ends first), at offset 0`},
		{`[{"src":1,"dst":2}] [`, `unexpected data after the edit array, at offset 20`},
	} {
		_, err := AppendEditsJSON(nil, []byte(tc.body))
		if err == nil || err.Error() != tc.want || StatusOf(err) != 400 {
			t.Errorf("AppendEditsJSON(%s) = %v; want a 400 %q", tc.body, err, tc.want)
		}
	}
}

// TestAppendEditsJSONAllocationFree: decoding into a dst with room
// allocates nothing, numbers and keys included.
func TestAppendEditsJSONAllocationFree(t *testing.T) {
	body := []byte(`[{"src":123456,"dst":7,"weight":0.125,"time":1700000000000,"delete":true},{"dst":2,"src":1}]`)
	dst := make([]IngestEdit, 0, 2)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = AppendEditsJSON(dst[:0], body); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendEditsJSON allocates %v times a call, want 0", n)
	}
}

// FuzzIngestJSON holds AppendEditsJSON to encoding/json, the oracle:
//   - whatever body it accepts, json.Unmarshal into []IngestEdit accepts
//     and reads as the same edits;
//   - json.Marshal of a random edit slice, with random whitespace between
//     its tokens, is always accepted and reads back as that slice.
func FuzzIngestJSON(f *testing.F) {
	for _, body := range []string{
		`[{"dst":5}]`,
		`[{"source":1,"dest":2}]`,
		`[{"SRC":3,"Dst":4}]`,
		`[{"src":1,"dst":2}]`,
		`[{"src":1,"dst":2,"weight":0.5,"time":3,"delete":true}, {"dst":1,"src":2}]`,
		`[]`,
	} {
		f.Add([]byte(body), int64(len(body)))
	}
	f.Fuzz(func(t *testing.T, body []byte, seed int64) {
		got, err := AppendEditsJSON(nil, body)
		if err == nil {
			var oracle []IngestEdit
			if jerr := json.Unmarshal(body, &oracle); jerr != nil {
				t.Fatalf("accepted %q, which encoding/json refuses: %v", body, jerr)
			}
			if !slices.Equal(got, oracle) {
				t.Fatalf("%q reads as %+v, encoding/json reads %+v", body, got, oracle)
			}
		} else if StatusOf(err) != 400 || !strings.HasPrefix(err.Error(), "edit ") && !strings.Contains(err.Error(), "at offset") {
			t.Fatalf("refusal of %q is not a 400 naming an edit or an offset: %v", body, err)
		}

		rng := rand.New(rand.NewSource(seed))
		want := randomEdits(rng)
		marshalled, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		spaced := spaceOut(rng, marshalled)
		got, err = AppendEditsJSON(got[:0], spaced)
		if err != nil {
			t.Fatalf("refused json.Marshal's %q: %v", spaced, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q reads as %+v, want %+v", spaced, got, want)
		}
	})
}

// randomEdits draws up to eight edits whose fields range over their types:
// extreme and negative integers, weights from any finite float32 bits.
func randomEdits(rng *rand.Rand) []IngestEdit {
	edits := make([]IngestEdit, rng.Intn(9))
	i32 := func() int32 {
		switch rng.Intn(4) {
		case 0:
			return math.MaxInt32 - rng.Int31n(2)
		case 1:
			return math.MinInt32 + rng.Int31n(2)
		default:
			return rng.Int31n(2000) - 1000
		}
	}
	for i := range edits {
		e := &edits[i]
		e.Src, e.Dst = i32(), i32()
		switch rng.Intn(3) {
		case 0:
			e.Weight = rng.Float32()
		case 1:
			if w := math.Float32frombits(rng.Uint32()); !math.IsNaN(float64(w)) && !math.IsInf(float64(w), 0) {
				e.Weight = w
			}
		}
		if rng.Intn(2) == 0 {
			e.Time = rng.Int63() - rng.Int63()
		}
		e.Delete = rng.Intn(4) == 0
	}
	return edits
}

// spaceOut copies b, a json.Marshal output with no string holding a
// structural byte, with random JSON whitespace before and after each one.
func spaceOut(rng *rand.Rand, b []byte) []byte {
	const ws = " \t\n\r"
	pad := func(out []byte) []byte {
		for n := rng.Intn(3); n > 0; n-- {
			out = append(out, ws[rng.Intn(len(ws))])
		}
		return out
	}
	out := pad(nil)
	for _, c := range b {
		structural := strings.IndexByte("[]{}:,", c) >= 0
		if structural {
			out = pad(out)
		}
		out = append(out, c)
		if structural {
			out = pad(out)
		}
	}
	return out
}

// BenchmarkIngestJSON decodes one 8,192-edit /ingest body, the size of a
// bulk-load POST, with AppendEditsJSON into a reused slice and with
// encoding/json, the decoder it replaced.
func BenchmarkIngestJSON(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	edits := make([]IngestEdit, 8192)
	for i := range edits {
		edits[i] = IngestEdit{Src: rng.Int31n(1 << 14), Dst: rng.Int31n(1 << 14)}
	}
	body, err := json.Marshal(edits)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AppendEditsJSON", func(b *testing.B) {
		var dst []IngestEdit
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dst, err = AppendEditsJSON(dst[:0], body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var dst []IngestEdit
			if err := json.Unmarshal(body, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
