package metastore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

type record struct{ job, rec string }

// replayAll returns every record Replay yields, copied out of the
// callback.
func replayAll(t *testing.T, s *Store) []record {
	t.Helper()
	var out []record
	if err := s.Replay(func(job string, rec []byte) error {
		out = append(out, record{job, string(rec)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func openJournal(t *testing.T, path string) *Store {
	t.Helper()
	s, err := Open(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	s := openJournal(t, path)
	var want []record
	for i := 0; i < 5; i++ {
		for job := 0; job < 3; job++ {
			r := record{fmt.Sprintf("job%d", job), fmt.Sprintf("job%d-rec%d", job, i)}
			if err := s.Append(r.job, []byte(r.rec)); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	if got := replayAll(t, s); !slices.Equal(got, want) {
		t.Fatalf("live replay = %v, want %v", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openJournal(t, path)
	defer s2.Close()
	if got := replayAll(t, s2); !slices.Equal(got, want) {
		t.Fatalf("replay after reopen = %v, want %v", got, want)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	s := openJournal(t, path)
	for i := 0; i < 4; i++ {
		if err := s.Append("job", []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openJournal(t, path)
	if recs := replayAll(t, s2); len(recs) != 3 {
		t.Fatalf("recovered %d records after torn tail, want 3", len(recs))
	}
	// Appending after recovery lands on the truncated edge.
	if err := s2.Append("job", []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openJournal(t, path)
	defer s3.Close()
	recs := replayAll(t, s3)
	if len(recs) != 4 || recs[3].rec != "post-recovery" {
		t.Fatalf("post-recovery journal state wrong: %d records", len(recs))
	}
}

func TestJournalCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	s := openJournal(t, path)
	for i := 0; i < 3; i++ {
		if err := s.Append("job", []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle record's payload.
	recLen := int64(journalHeader + len("job") + len("record-0"))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x7F}, recLen+journalHeader+4); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openJournal(t, path)
	defer s2.Close()
	if recs := replayAll(t, s2); len(recs) != 1 {
		t.Fatalf("recovered %d records after corruption, want 1", len(recs))
	}
}

func TestAppendCopiesRecord(t *testing.T) {
	s := openJournal(t, filepath.Join(t.TempDir(), "meta.journal"))
	defer s.Close()
	buf := []byte("mutable")
	if err := s.Append("j", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	if recs := replayAll(t, s); recs[0].rec != "mutable" {
		t.Fatal("record aliased caller buffer")
	}
}

// TestJournalFramePinned pins the on-disk frame Append writes:
// crc32c | op 1 | jobLen | recLen | job | rec, back to back.
func TestJournalFramePinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.journal")
	s := openJournal(t, path)
	for _, r := range []record{{"nightly", "run opened"}, {"j", ""}, {"nightly", "\x00\xff"}} {
		if err := s.Append(r.job, []byte(r.rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"e3f7d504", "01", "0007", "0000000a", "6e696768746c79", "72756e206f70656e6564",
		"20001fee", "01", "0001", "00000000", "6a",
		"43516855", "01", "0007", "00000002", "6e696768746c79", "00ff",
	}, "")
	if hex.EncodeToString(got) != want {
		t.Fatalf("journal bytes\n got %x\nwant %s", got, want)
	}
}

func TestConcurrent250Jobs(t *testing.T) {
	// The §6.3 claim: >250 jobs appending concurrently at an aggregate
	// >100 MB/s. Run 256 goroutines, one per job, each journaling 64
	// records of 8 KiB, sync, and check every record replays after a
	// reopen. The race detector slows appends ~3×, so under it the test
	// checks integrity only.
	path := filepath.Join(t.TempDir(), "meta.journal")
	s := openJournal(t, path)
	const jobs, recsPerJob, recSize = 256, 64, 8192
	start := time.Now()
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			rec := bytes.Repeat([]byte{byte(j)}, recSize)
			for i := 0; i < recsPerJob; i++ {
				binary.BigEndian.PutUint32(rec, uint32(i))
				if err := s.Append(fmt.Sprintf("job-%03d", j), rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(j)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openJournal(t, path)
	defer s2.Close()
	next := make(map[string]int)
	if err := s2.Replay(func(job string, rec []byte) error {
		var j int
		if _, err := fmt.Sscanf(job, "job-%03d", &j); err != nil {
			return err
		}
		i := next[job]
		if len(rec) != recSize || binary.BigEndian.Uint32(rec) != uint32(i) ||
			!bytes.Equal(rec[4:], bytes.Repeat([]byte{byte(j)}, recSize-4)) {
			return fmt.Errorf("%s record %d corrupt or out of order", job, i)
		}
		next[job] = i + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(next) != jobs {
		t.Fatalf("replayed %d jobs, want %d", len(next), jobs)
	}
	for job, n := range next {
		if n != recsPerJob {
			t.Fatalf("%s: %d records, want %d", job, n, recsPerJob)
		}
	}

	mbps := float64(jobs*recsPerJob*recSize) / elapsed.Seconds() / 1e6
	t.Logf("aggregate journaled metadata throughput %.1f MB/s", mbps)
	if !raceEnabled && mbps < 100 {
		t.Fatalf("aggregate metadata throughput %.1f MB/s < 100 (paper §6.3)", mbps)
	}
}

// frame encodes one journal frame with an arbitrary op, for fuzz seeds.
func frame(op byte, job, rec string) []byte {
	b := make([]byte, journalHeader, journalHeader+len(job)+len(rec))
	b[4] = op
	binary.BigEndian.PutUint16(b[5:], uint16(len(job)))
	binary.BigEndian.PutUint32(b[7:], uint32(len(rec)))
	b = append(append(b, job...), rec...)
	binary.BigEndian.PutUint32(b, crc32.Checksum(b[4:], journalCastagnoli))
	return b
}

// FuzzJournalReplay feeds arbitrary bytes to Open as a journal file.
// Recovery must not panic, must allocate in proportion to the file (never
// a corrupt length's worth), and must keep a prefix that re-appending its
// replayed records reproduces byte for byte; a further Append survives a
// reopen behind that prefix.
func FuzzJournalReplay(f *testing.F) {
	valid := append(frame(opAppend, "nightly", "run opened"), frame(opAppend, "j", "")...)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(slices.Clone(valid), frame(2, "nightly", "")...))
	f.Add(append(frame(opAppend, "j", "x"), 0xde, 0xad, 0xbe, 0xef, 1, 0, 1, 0x03, 0xff, 0xff, 0xff))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "meta.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := replayAll(t, s)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(data)) {
			t.Fatalf("Open+Replay of a %d-byte journal allocated %d bytes", len(data), grew)
		}

		prefix, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatal("recovery rewrote the kept prefix")
		}
		freshPath := filepath.Join(dir, "fresh.journal")
		fresh := openJournal(t, freshPath)
		for _, r := range got {
			if err := fresh.Append(r.job, []byte(r.rec)); err != nil {
				t.Fatal(err)
			}
		}
		if err := fresh.Close(); err != nil {
			t.Fatal(err)
		}
		if re, err := os.ReadFile(freshPath); err != nil || !bytes.Equal(re, prefix) {
			t.Fatalf("re-appending %d replayed records gave %x, want the recovered prefix %x (err %v)", len(got), re, prefix, err)
		}

		if err := s.Append("fuzz", []byte("tail")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openJournal(t, path)
		defer s2.Close()
		if got2 := replayAll(t, s2); !slices.Equal(got2, append(got, record{"fuzz", "tail"})) {
			t.Fatalf("after append + reopen replayed %v, want %v + fuzz/tail", got2, got)
		}
	})
}
