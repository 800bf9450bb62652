package chunklog

import (
	"bytes"
	"fmt"
	"sync"
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
	i := 0
	err := l.Select(nil, func(r Record) error {
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
	err := l.Select(nil, func(r Record) error {
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
	l.Reset()
	if n := walkCount(t, l); n != 0 || l.Bytes() != 0 {
		t.Fatalf("Reset left %d records, %d bytes", n, l.Bytes())
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
	_ = l.Select(nil, func(Record) error { return nil })
	if disk.Clock.Now() <= w {
		t.Fatal("Select charged nothing")
	}
}

// TestMemSelectChargesWholeLog: a walk that keeps no record still charges
// one sequential read over every record, and an append one sequential
// write of its record: the paper's chunk storing reads the whole log.
func TestMemSelectChargesWholeLog(t *testing.T) {
	const n, size = 8, 4096
	disk, want := disksim.NewDisk(disksim.DefaultRAID()), disksim.NewDisk(disksim.DefaultRAID())
	l := NewMem(true, disk)
	for i := range n {
		if err := l.Append(fp.FromUint64(uint64(i)), size, nil); err != nil {
			t.Fatal(err)
		}
		want.SeqWrite(recordHeader + size)
	}
	err := l.Select(func(fp.FP, uint32) bool { return false }, func(Record) error {
		t.Fatal("a rejected record reached fn")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want.SeqRead(n * (recordHeader + size))
	if got := disk.Clock.Now(); got != want.Clock.Now() {
		t.Fatalf("appends and a walk keeping nothing charged %v, want %v", got, want.Clock.Now())
	}
}

// TestMemConcurrentUse runs appenders, walkers and a Reset at once under
// the race detector: every walk sees an in-order run of one appender's
// records, and Bytes counts exactly the records appended after the
// Reset.
func TestMemConcurrentUse(t *testing.T) {
	l := NewMem(false, nil)
	const appenders, each = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, appenders+4)
	for a := range appenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				data := []byte{byte(a), byte(i), byte(i >> 8)}
				if err := l.Append(fp.FromUint64(uint64(a*each+i)), uint32(len(data)), data); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[byte]int)
			errs <- l.Select(nil, func(r Record) error {
				a, i := r.Data[0], int(r.Data[1])|int(r.Data[2])<<8
				if p, ok := last[a]; ok && i <= p {
					return fmt.Errorf("appender %d: record %d after %d", a, i, p)
				}
				last[a] = i
				return nil
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := walkCount(t, l); got != appenders*each || l.Bytes() != 3*appenders*each {
		t.Fatalf("log holds %d records, %d bytes; want %d, %d", got, l.Bytes(), appenders*each, 3*appenders*each)
	}
	l.Reset()
	appendN(t, l, 0, 5)
	if got := walkCount(t, l); got != 5 || l.Bytes() != 15 {
		t.Fatalf("after Reset and 5 appends: %d records, %d bytes; want 5, 15", got, l.Bytes())
	}
}

func TestIterateErrorPropagates(t *testing.T) {
	l := NewMem(true, nil)
	_ = l.Append(fp.FromUint64(1), 1, nil)
	_ = l.Append(fp.FromUint64(2), 1, nil)
	calls := 0
	sentinel := bytes.ErrTooLarge
	err := l.Select(nil, func(Record) error { calls++; return sentinel })
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
