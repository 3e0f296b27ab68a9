package sisap

import (
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// TestCursorRules pins the two rules every codec inherits from the cursor:
// numbers are range-checked in uint64 space, and a claimed length is checked
// against the remaining input before anything is allocated for it.
func TestCursorRules(t *testing.T) {
	var e enc
	e.u64(1 << 63)
	e.u64(7)
	e.u32(3)
	e.f64s([]float64{0.5, -2})
	e.ids([]int{4, 9})
	e.u64(5)
	e.str("hello")

	d := newDec(e.b)
	if got := d.id("id", 50); got != 0 || d.err == nil {
		t.Fatalf("id(1<<63) = %d, err %v: want a range error", got, d.err)
	}
	// The error is sticky: later reads return zero and do not advance.
	if got := d.u64(); got != 0 || len(d.b) != len(e.b)-8 {
		t.Errorf("read after failure returned %d, %d bytes left", got, len(d.b))
	}

	d = newDec(e.b[8:])
	if got := d.id("id", 8); got != 7 || d.err != nil {
		t.Errorf("id = %d, err %v", got, d.err)
	}
	if got := d.count("count", uint64(d.u32()), 1, 3); got != 3 || d.err != nil {
		t.Errorf("count = %d, err %v", got, d.err)
	}
	if got := d.f64s(2); len(got) != 2 || got[0] != 0.5 || got[1] != -2 {
		t.Errorf("f64s = %v", got)
	}
	if got := d.ids("id", 2, 10); len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Errorf("ids = %v", got)
	}
	if got := string(d.sub()); got != "hello" || d.err != nil || len(d.b) != 0 {
		t.Errorf("sub = %q, err %v, %d bytes left", got, d.err, len(d.b))
	}

	for name, read := range map[string]func(*dec){
		"count above hi": func(d *dec) { d.count("n", 11, 0, 10) },
		"count below lo": func(d *dec) { d.count("n", 0, 1, 10) },
		"count wraps":    func(d *dec) { d.count("n", math.MaxUint64, 0, math.MaxInt) },
		"id equals n":    func(d *dec) { d.id("id", 7) },
		"ids past limit": func(d *dec) { d.u64(); d.u32(); d.u64(); d.u64(); d.ids("id", 2, 9) },
	} {
		d := newDec(e.b[8:])
		if read(d); d.err == nil {
			t.Errorf("%s: no error", name)
		}
	}

	// Lengths that exceed the input fail with ErrUnexpectedEOF before the
	// slice they claim exists.
	for name, read := range map[string]func(*dec){
		"bytes": func(d *dec) { d.bytes(1 << 40) },
		"ids":   func(d *dec) { d.ids("id", 1<<30, 10) },
		"u64s":  func(d *dec) { d.u64s(1 << 40) },
		"f64s":  func(d *dec) { d.f64s(1 << 30) },
		"sub":   func(d *dec) { d.sub() }, // the length it reads is 1<<63
	} {
		var before, after runtime.MemStats
		d := newDec(e.b)
		runtime.ReadMemStats(&before)
		read(d)
		runtime.ReadMemStats(&after)
		if !errors.Is(d.err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err %v, want ErrUnexpectedEOF", name, d.err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 { // the error, nothing sized by the claim
			t.Errorf("%s: allocated %d bytes", name, grew)
		}
	}
}
