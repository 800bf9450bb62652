package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// rng is splitmix64: the only source of randomness in the benchmark, so
// -seed alone fixes every generated byte and every mutation choice.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// n used here and identical for identical seeds, which is what matters.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) fill(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.next())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(p, tail[:])
	}
}

// derive returns an independent stream for one (seed, purpose...) tuple,
// so client 1's data does not depend on how much client 0 drew.
func derive(seed uint64, parts ...uint64) *rng {
	r := &rng{s: seed}
	for _, p := range parts {
		r.s = r.next() ^ p*0xd6e8feb86659fd93
	}
	r.next()
	return r
}

// tree is one client's source dataset on disk plus the SHA-256 of every
// file, kept current by the generator so verification never re-reads the
// sources.
type tree struct {
	dir    string
	sums   map[string][sha256.Size]byte // slash-separated relative path → content digest
	sizes  map[string]int64
	bytes  int64
	nextID int
}

func newTree(dir string) (*tree, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &tree{dir: dir, sums: map[string][sha256.Size]byte{}, sizes: map[string]int64{}}, nil
}

func (t *tree) put(rel string, data []byte) error {
	path := filepath.Join(t.dir, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	t.bytes += int64(len(data)) - t.sizes[rel]
	t.sums[rel] = sha256.Sum256(data)
	t.sizes[rel] = int64(len(data))
	return nil
}

func (t *tree) remove(rel string) error {
	if err := os.Remove(filepath.Join(t.dir, filepath.FromSlash(rel))); err != nil {
		return err
	}
	t.bytes -= t.sizes[rel]
	delete(t.sums, rel)
	delete(t.sizes, rel)
	return nil
}

// paths returns the relative paths in sorted order: map iteration order
// must never reach a seeded choice.
func (t *tree) paths() []string {
	ps := make([]string, 0, len(t.sums))
	for p := range t.sums {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

func (t *tree) newName() string {
	t.nextID++
	return fmt.Sprintf("d%02d/f%06d.bin", t.nextID%16, t.nextID)
}

// digest identifies the whole tree: paths and contents.
func (t *tree) digest() [sha256.Size]byte {
	h := sha256.New()
	for _, p := range t.paths() {
		sum := t.sums[p]
		fmt.Fprintf(h, "%s\x00", p)
		h.Write(sum[:])
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// genFlat writes nfiles files of incompressible, mutually distinct bytes
// totalling total bytes: the dataset of the fresh and xjob workloads.
func genFlat(dir string, r *rng, nfiles int, total int64) (*tree, error) {
	t, err := newTree(dir)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, total/int64(nfiles))
	for i := 0; i < nfiles; i++ {
		r.fill(buf)
		if err := t.put(fmt.Sprintf("file-%d.bin", i), buf); err != nil {
			return nil, err
		}
	}
	return t, nil
}

const (
	treeMinFile = 1 << 10
	treeMaxFile = 1 << 20
)

// genTree writes files with sizes log-uniform in [1 KiB, 1 MiB) until
// exactly total bytes exist: generation 1 of the incr workload.
func genTree(dir string, r *rng, total int64) (*tree, error) {
	t, err := newTree(dir)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, treeMaxFile)
	for t.bytes < total {
		size := int64(treeMinFile * math.Exp2(r.float()*math.Log2(treeMaxFile/treeMinFile)))
		if rest := total - t.bytes; size > rest {
			size = rest
		}
		r.fill(buf[:size])
		if err := t.put(t.newName(), buf[:size]); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Mutation shape of one incr generation. The new-byte budget is fixed in
// bytes, not in files, because wire_per_logical and stored_per_logical on
// incr are proportional to it: picking "files totalling 10 %" of a
// log-uniform tree lands anywhere between a handful of 1 MiB files and
// hundreds of small ones, and the spread between seeds would exceed the
// metrics' bounds.
const (
	mutRegion     = 64 << 10 // each overwrite is one contiguous region of this size
	mutOverwrite  = 0.04     // share of the tree's bytes overwritten per generation
	mutAdded      = 0.01     // share of bytes arriving as new files; as many files are deleted
	mutInsertBase = 1 << 10  // each overwritten file also gets 1–4 KiB inserted
	mutInsertSpan = 3 << 10
)

// mutate turns generation g into g+1 in place and returns the bytes of
// content that did not exist before (overwritten + inserted + added).
func (t *tree) mutate(r *rng) (int64, error) {
	var fresh int64
	total := t.bytes

	// Overwrites go to files that hold a region twice over; a tree too
	// small to have one (smoke sizes) overwrites half of its largest file.
	regionLen := mutRegion
	var eligible []string
	largest := ""
	for _, p := range t.paths() {
		if t.sizes[p] >= 2*mutRegion {
			eligible = append(eligible, p)
		}
		if largest == "" || t.sizes[p] > t.sizes[largest] {
			largest = p
		}
	}
	if len(eligible) == 0 {
		eligible = []string{largest}
		regionLen = int(t.sizes[largest] / 2)
	}
	shuffle(r, eligible)
	n := int(math.Round(mutOverwrite * float64(total) / float64(regionLen)))
	n = max(1, min(n, len(eligible)))
	for _, p := range eligible[:n] {
		path := filepath.Join(t.dir, filepath.FromSlash(p))
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		off := r.intn(len(data) - regionLen + 1)
		r.fill(data[off : off+regionLen])
		ins := make([]byte, mutInsertBase+r.intn(mutInsertSpan+1))
		r.fill(ins)
		at := r.intn(len(data) + 1)
		data = append(data[:at:at], append(ins, data[at:]...)...)
		if err := t.put(p, data); err != nil {
			return 0, err
		}
		fresh += int64(regionLen + len(ins))
	}

	all := t.paths()
	shuffle(r, all)
	nDel := max(1, int(math.Round(mutAdded*float64(len(all)))))
	for _, p := range all[:nDel] {
		if err := t.remove(p); err != nil {
			return 0, err
		}
	}
	buf := make([]byte, int64(mutAdded*float64(total))/int64(nDel))
	for i := 0; i < nDel; i++ {
		r.fill(buf)
		if err := t.put(t.newName(), buf); err != nil {
			return 0, err
		}
		fresh += int64(len(buf))
	}
	return fresh, nil
}

func shuffle(r *rng, s []string) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// verifyTree compares every file under restored with the tree's recorded
// digests. Each expected file is one attempted comparison; a missing,
// differing or unexpected file is one failure.
func verifyTree(t *tree, restored string) (attempted, failed int, err error) {
	seen := 0
	err = filepath.WalkDir(restored, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		rel, err := filepath.Rel(restored, path)
		if err != nil {
			return err
		}
		want, ok := t.sums[filepath.ToSlash(rel)]
		if !ok {
			failed++
			return nil
		}
		seen++
		got, err := hashFile(path)
		if err != nil {
			return err
		}
		if got != want {
			failed++
		}
		return nil
	})
	attempted = len(t.sums)
	failed += attempted - seen
	return attempted, failed, err
}

func hashFile(path string) (sum [sha256.Size]byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	h.Sum(sum[:0])
	return sum, nil
}
