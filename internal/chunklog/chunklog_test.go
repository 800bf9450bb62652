package chunklog

import (
	"bytes"
	"testing"

	"debar/internal/disksim"
	"debar/internal/fp"
)

func TestAppendIterateOrder(t *testing.T) {
	l := NewMem(false, nil)
	var want []Record
	for i := uint64(0); i < 100; i++ {
		data := bytes.Repeat([]byte{byte(i)}, int(i%50)+1)
		f := fp.New(data)
		if err := l.Append(f, uint32(len(data)), data); err != nil {
			t.Fatal(err)
		}
		want = append(want, Record{FP: f, Size: uint32(len(data)), Data: data})
	}
	if l.Count() != 100 {
		t.Fatalf("Count = %d", l.Count())
	}
	i := 0
	err := l.Iterate(func(r Record) error {
		if r.FP != want[i].FP || r.Size != want[i].Size || !bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d differs", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != 100 {
		t.Fatalf("iterated %d records", i)
	}
}

func TestAccountingMode(t *testing.T) {
	l := NewMem(true, nil)
	if err := l.Append(fp.FromUint64(1), 8192, nil); err != nil {
		t.Fatal(err)
	}
	if l.Bytes() != 8192 {
		t.Fatalf("Bytes = %d, want 8192", l.Bytes())
	}
	err := l.Iterate(func(r Record) error {
		if r.Data != nil {
			t.Fatal("accounting mode returned data")
		}
		if r.Size != 8192 {
			t.Fatalf("size = %d", r.Size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	l := NewMem(false, nil)
	if err := l.Append(fp.FromUint64(1), 10, []byte("short")); err == nil {
		t.Fatal("mismatched size accepted")
	}
}

func TestReset(t *testing.T) {
	l := NewMem(true, nil)
	_ = l.Append(fp.FromUint64(1), 100, nil)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 || l.Bytes() != 0 {
		t.Fatal("Reset left records")
	}
}

func TestChargesIO(t *testing.T) {
	disk := disksim.NewDisk(disksim.DefaultRAID())
	l := NewMem(true, disk)
	_ = l.Append(fp.FromUint64(1), 1<<20, nil)
	w := disk.Clock.Now()
	if w == 0 {
		t.Fatal("Append charged nothing")
	}
	_ = l.Iterate(func(Record) error { return nil })
	if disk.Clock.Now() <= w {
		t.Fatal("Iterate charged nothing")
	}
}

func TestIterateErrorPropagates(t *testing.T) {
	l := NewMem(true, nil)
	_ = l.Append(fp.FromUint64(1), 1, nil)
	_ = l.Append(fp.FromUint64(2), 1, nil)
	calls := 0
	sentinel := bytes.ErrTooLarge
	err := l.Iterate(func(Record) error { calls++; return sentinel })
	if err != sentinel || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func BenchmarkAppendMem(b *testing.B) {
	l := NewMem(true, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = l.Append(fp.FromUint64(uint64(i)), 8192, nil)
	}
}
