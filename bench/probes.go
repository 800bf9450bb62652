package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"debar"
	"debar/internal/chunker"
	"debar/internal/chunklog"
	"debar/internal/client"
	"debar/internal/container"
	"debar/internal/director"
	"debar/internal/diskindex"
	"debar/internal/fp"
	"debar/internal/indexcache"
	"debar/internal/metastore"
	"debar/internal/prefilter"
	"debar/internal/proto"
	"debar/internal/store"
	"debar/internal/tpds"
)

// The layer probes replay client 0's current dataset through each layer's
// public functions, one layer per span, on one goroutine (plus the peer
// of a loopback connection where the layer is a wire format). They answer
// "how fast is this layer alone on this workload's data", the number an
// end-to-end change is attributed with.

const (
	batchChunks  = 256   // chunks per FPBatch / ChunkBatch / restore batch, the client's default
	cacheBits    = 12    // the server's default index-cache geometry for SIL
	lookupProbes = 65536 // disk-index lookups per hit/miss probe
	minTrips     = 1000  // round trips per latency probe, so each lasts tens of ms
	silPasses    = 15    // SIL passes per worker count
)

// corpus is client 0's dataset, chunked and fingerprinted as the client
// would: files in sorted path order, chunks in file order.
type corpus struct {
	files  []proto.FileEntry // Chunks and Sizes alias fps and sizes
	chunks [][]byte          // every chunk's payload
	sizes  []uint32
	fps    []fp.FP
	bytes  int64
}

// batches calls fn for each run of up to batchChunks consecutive chunks.
func (co *corpus) batches(fn func(lo, hi int) error) error {
	for lo := 0; lo < len(co.chunks); lo += batchChunks {
		if err := fn(lo, min(lo+batchChunks, len(co.chunks))); err != nil {
			return err
		}
	}
	return nil
}

// probe times fn inside a child span of parent and returns its duration.
func (r *run) probe(name string, parent int, fn func() error) (time.Duration, error) {
	id := r.rec.start("probe."+name, parent, r.gen)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.rec.end(id)
	if err != nil {
		return d, fmt.Errorf("probe %s: %w", name, err)
	}
	return d, nil
}

func (r *run) probes() error {
	root := r.rec.start("probes", 0, r.gen)
	defer r.rec.end(root)
	l := r.layer
	t := r.trees[0]
	co := &corpus{}

	// chunker: the client's own read path, file by file.
	d, err := r.probe("chunker", root, func() error {
		for _, rel := range t.paths() {
			f, err := os.Open(filepath.Join(t.dir, filepath.FromSlash(rel)))
			if err != nil {
				return err
			}
			ck, err := chunker.New(f, chunker.Config{})
			if err != nil {
				return errors.Join(err, f.Close())
			}
			first := len(co.chunks)
			for {
				c, err := ck.AppendNext(nil)
				if err == io.EOF {
					break
				}
				if err != nil {
					return errors.Join(err, f.Close())
				}
				co.chunks = append(co.chunks, c.Data)
				co.sizes = append(co.sizes, uint32(len(c.Data)))
				co.bytes += int64(len(c.Data))
			}
			// Chunks and Sizes are cut from the flat slices below, once
			// those have stopped growing; Sizes holds the count until then.
			co.files = append(co.files, proto.FileEntry{Path: rel, Mode: 0o644, Size: t.sizes[rel], Sizes: make([]uint32, len(co.chunks)-first)})
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.add("chunker.split_MBps", mbps(co.bytes, d))
	l.add("chunker.mean_chunk_B", ratio(float64(co.bytes), float64(len(co.chunks))))

	co.fps = make([]fp.FP, len(co.chunks))
	d, _ = r.probe("fp", root, func() error {
		for i, c := range co.chunks {
			co.fps[i] = fp.New(c)
		}
		return nil
	})
	l.add("fp.sha1_MBps", mbps(co.bytes, d))
	next := 0
	for i := range co.files {
		n := len(co.files[i].Sizes)
		co.files[i].Chunks, co.files[i].Sizes = co.fps[next:next+n], co.sizes[next:next+n]
		next += n
	}

	// prefilter: primed with the job's previous generation as the server
	// primes it (nothing, for a job name never seen), then offered this one.
	pf := prefilter.New(14, 0)
	for _, f := range r.prevFPs {
		pf.Prime(f)
	}
	d, _ = r.probe("prefilter", root, func() error {
		for _, f := range co.fps {
			pf.Test(f)
		}
		return nil
	})
	l.add("prefilter.test_ns", ratio(float64(d.Nanoseconds()), float64(len(co.fps))))

	if err := r.probeProto(root, co); err != nil {
		return err
	}
	if err := r.probeDirector(root, co); err != nil {
		return err
	}
	if err := r.probeWritePath(root, co); err != nil {
		return err
	}
	if err := r.probeStoredState(root, co); err != nil {
		return err
	}
	return r.probeDeployments(root)
}

// loopback returns the two ends of one TCP connection on 127.0.0.1,
// framed as the daemons frame theirs.
func loopback() (a, b *proto.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept() // a nil conn is reported by the receive below
		accepted <- c
	}()
	a, err = proto.Dial(ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	c := <-accepted
	if c == nil {
		return nil, nil, errors.Join(errors.New("loopback accept failed"), a.Close())
	}
	return a, proto.NewConn(c), nil
}

// withPeer runs peer on the far end of a loopback connection while fn
// drives the near end, and waits for both.
func withPeer(peer, fn func(c *proto.Conn) error) error {
	a, b, err := loopback()
	if err != nil {
		return err
	}
	// Whichever side fails first closes its end, so the other side's
	// pending Recv fails too and both return.
	done := make(chan error, 1)
	go func() {
		err := peer(b)
		if err != nil {
			b.Close()
		}
		done <- err
	}()
	err = fn(a)
	if err != nil {
		a.Close()
	}
	if err = errors.Join(err, <-done); err != nil {
		return err
	}
	return errors.Join(a.Close(), b.Close())
}

func expect[T any](c *proto.Conn) (T, error) {
	msg, err := c.Recv()
	if err != nil {
		var zero T
		return zero, err
	}
	m, ok := msg.(T)
	if !ok {
		return m, fmt.Errorf("unexpected frame %T", msg)
	}
	return m, nil
}

func (r *run) probeProto(root int, co *corpus) error {
	l := r.layer
	nBatches := (len(co.chunks) + batchChunks - 1) / batchChunks

	// ChunkBatch: the backup data path's frame, one way.
	d, err := r.probe("proto.chunkbatch", root, func() error {
		return withPeer(func(c *proto.Conn) error {
			return co.batches(func(lo, hi int) error {
				return c.Send(proto.ChunkBatch{SessionID: 1, FPs: co.fps[lo:hi], Data: co.chunks[lo:hi]})
			})
		}, func(c *proto.Conn) error {
			for i := 0; i < nBatches; i++ {
				if _, err := expect[proto.ChunkBatch](c); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.add("proto.chunkbatch_MBps", mbps(co.bytes, d))

	// RestoreChunkBatch out, RestoreAck back: the restore stream's frames.
	d, err = r.probe("proto.restorebatch", root, func() error {
		return withPeer(func(c *proto.Conn) error {
			seq := uint64(0)
			err := co.batches(func(lo, hi int) error {
				seq++
				return c.Send(proto.RestoreChunkBatch{Seq: seq, Data: co.chunks[lo:hi]})
			})
			for i := 0; i < nBatches && err == nil; i++ {
				_, err = expect[proto.RestoreAck](c)
			}
			return err
		}, func(c *proto.Conn) error {
			for i := 0; i < nBatches; i++ {
				b, err := expect[proto.RestoreChunkBatch](c)
				if err != nil {
					return err
				}
				if err := c.Send(proto.RestoreAck{Seq: b.Seq}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.add("proto.restorebatch_MBps", mbps(co.bytes, d))

	// FPBatch → FPVerdicts round trip: what every 256 chunks cost when the
	// payload stays home.
	trips := max(minTrips, nBatches)
	d, err = r.probe("proto.fpbatch", root, func() error {
		return withPeer(func(c *proto.Conn) error {
			for i := 0; i < trips; i++ {
				b, err := expect[proto.FPBatch](c)
				if err != nil {
					return err
				}
				if err := c.Send(proto.FPVerdicts{Seq: b.Seq, Verdicts: make([]proto.Verdict, len(b.FPs))}); err != nil {
					return err
				}
			}
			return nil
		}, func(c *proto.Conn) error {
			for i := 0; i < trips; i++ {
				lo := (i % nBatches) * batchChunks
				hi := min(lo+batchChunks, len(co.fps))
				if err := c.Send(proto.FPBatch{SessionID: 1, Seq: uint64(i), FPs: co.fps[lo:hi], Sizes: co.sizes[lo:hi]}); err != nil {
					return err
				}
				if _, err := expect[proto.FPVerdicts](c); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.add("proto.fpbatch_us", ratio(float64(d.Microseconds()), float64(trips)))

	// Control frames (gob): one BackupStart, then a FileMeta per file.
	trips = max(minTrips, len(co.files))
	d, err = r.probe("proto.control", root, func() error {
		return withPeer(func(c *proto.Conn) error {
			if _, err := expect[proto.BackupStart](c); err != nil {
				return err
			}
			if err := c.Send(proto.BackupStartOK{SessionID: 1, Version: proto.ProtocolVersion}); err != nil {
				return err
			}
			for i := 0; i < trips; i++ {
				if _, err := expect[proto.FileMeta](c); err != nil {
					return err
				}
				if err := c.Send(proto.Ack{OK: true}); err != nil {
					return err
				}
			}
			return nil
		}, func(c *proto.Conn) error {
			if err := c.Send(proto.BackupStart{JobName: "probe", Client: "probe", Version: proto.ProtocolVersion}); err != nil {
				return err
			}
			if _, err := expect[proto.BackupStartOK](c); err != nil {
				return err
			}
			for i := 0; i < trips; i++ {
				if err := c.Send(proto.FileMeta{SessionID: 1, Entry: co.files[i%len(co.files)]}); err != nil {
					return err
				}
				if _, err := expect[proto.Ack](c); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.add("proto.control_us", ratio(float64(d.Microseconds()), float64(trips+1)))
	return nil
}

// probeDirector journals the dataset's file index the way one backup run
// does: NewRun, a PutFileIndex per file, EndRun.
func (r *run) probeDirector(root int, co *corpus) error {
	ms, err := metastore.Open(filepath.Join(r.cfg.workDir, "probe-meta.journal"), 0)
	if err != nil {
		return err
	}
	defer ms.Close()
	dir, err := director.NewDurable(ms)
	if err != nil {
		return err
	}
	defer dir.Close()
	d, err := r.probe("director", root, func() error {
		id := dir.NewRun("probe", "probe")
		for _, e := range co.files {
			if err := dir.PutFileIndex("probe", id, e); err != nil {
				return err
			}
		}
		return dir.EndRun("probe", id)
	})
	r.layer.add("director.putfile_us", ratio(float64(d.Microseconds()), float64(len(co.files))))
	return err
}

// probeWritePath pushes the dataset through the durable write path on a
// scratch engine: WAL append with group commit, dedup-2's container
// packing, SIU, and bare container appends.
func (r *run) probeWritePath(root int, co *corpus) (err error) {
	eng, err := store.Open(filepath.Join(r.cfg.workDir, "probe-engine"), store.Options{IndexBits: indexBits})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, eng.Close()) }()
	l := r.layer

	// As the server does per ChunkBatch: append, then wait for the group
	// commit that covers the batch before acknowledging it.
	d, err := r.probe("store.wal", root, func() error {
		wal := eng.ChunkLog()
		return co.batches(func(lo, hi int) error {
			var n int64
			for i := lo; i < hi; i++ {
				if err := wal.AppendOwned(co.fps[i], uint32(len(co.chunks[i])), co.chunks[i]); err != nil {
					return err
				}
				n += int64(len(co.chunks[i]))
			}
			return eng.WALTicket(n).Wait()
		})
	})
	if err != nil {
		return err
	}
	l.add("store.wal_append_MBps", mbps(co.bytes, d))

	cache := indexcache.New(cacheBits, 0)
	for _, f := range co.fps {
		if _, err := cache.Insert(f); err != nil {
			return err
		}
	}
	d, err = r.probe("tpds.store", root, func() error {
		_, err := tpds.StoreChunks(eng.ChunkLog(), cache, eng.Repo(), container.DefaultSize, false)
		return err
	})
	if err != nil {
		return err
	}
	l.add("tpds.store_ms", float64(d.Microseconds())/1e3)

	entries := cache.Collect()
	d, err = r.probe("tpds.siu", root, func() error { return tpds.SIU(eng.Index(), entries, 0) })
	if err != nil {
		return err
	}
	l.add("tpds.siu_ms", float64(d.Microseconds())/1e3)

	d, err = r.probe("store.container", root, func() error {
		w := container.NewWriter(container.DefaultSize, false)
		seal := func() error {
			_, err := eng.SegRepo().Append(w.Seal(0))
			return err
		}
		for i, c := range co.chunks {
			if !w.Fits(len(c)) {
				if err := seal(); err != nil {
					return err
				}
			}
			w.Add(co.fps[i], uint32(len(c)), c)
		}
		if !w.Empty() {
			if err := seal(); err != nil {
				return err
			}
		}
		return eng.SegRepo().Flush()
	})
	l.add("store.container_append_MBps", mbps(co.bytes, d))
	return err
}

// probeStoredState reopens the store the cycles left behind and measures
// the layers whose cost depends on what is in it: random index lookups,
// the sequential SIL scan at 1 and nproc workers, and the restore path
// with its locality-preserved cache.
func (r *run) probeStoredState(root int, co *corpus) (err error) {
	r.closeSystem()
	eng, err := store.Open(filepath.Join(r.dataDir, "server-0"), store.Options{IndexBits: indexBits})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, eng.Close()) }()
	l := r.layer
	ix := eng.Index()
	l.add("diskindex.utilization", ix.Utilization())

	present := make([]fp.FP, lookupProbes)
	absent := make([]fp.FP, lookupProbes)
	rnd := derive(r.cfg.seed, 'p')
	for i := range present {
		present[i] = co.fps[i%len(co.fps)]
		absent[i] = fp.FromUint64(rnd.next())
	}
	lookup := func(name string, fps []fp.FP, want error) error {
		d, err := r.probe(name, root, func() error {
			for _, f := range fps {
				if _, err := ix.Lookup(f); !errors.Is(err, want) {
					return fmt.Errorf("lookup of %s: %v", f.Short(), err)
				}
			}
			return nil
		})
		l.add(name+"_ns", ratio(float64(d.Nanoseconds()), float64(len(fps))))
		return err
	}
	if err := lookup("diskindex.lookup_hit", present, nil); err != nil {
		return err
	}
	if err := lookup("diskindex.lookup_miss", absent, diskindex.ErrNotFound); err != nil {
		return err
	}

	cache := indexcache.New(cacheBits, 0)
	for _, f := range co.fps {
		if _, err := cache.Insert(f); err != nil {
			return err
		}
	}
	d, err := r.probe("tpds.sil", root, func() error {
		_, err := tpds.SIL(ix, cache, 0)
		return err
	})
	if err != nil {
		return err
	}
	l.add("tpds.sil_ms", float64(d.Microseconds())/1e3)

	// Every fingerprint is already stored, so the pass is SIL alone: the
	// log is empty and nothing is packed or appended. One pass takes a few
	// ms, so the two worker counts alternate silPasses times each and the
	// speed-up is the ratio of their medians. (Dedup2Result.SILTime reads
	// the simulated disk clock, which a real store does not have.)
	var walls [2][]float64
	for i := 0; i < 2*silPasses; i++ {
		cs := tpds.NewChunkStore(ix, eng.Repo(), false, false)
		cs.Workers = []int{1, runtime.GOMAXPROCS(0)}[i%2]
		d, err := r.probe(fmt.Sprintf("tpds.sil_workers-%d", cs.Workers), root, func() error {
			_, _, err := cs.RunSILAndStore(co.fps, chunklog.NewMem(false, nil), cacheBits)
			return err
		})
		if err != nil {
			return err
		}
		walls[i%2] = append(walls[i%2], d.Seconds())
	}
	l.add("tpds.sil_workers_speedup", ratio(summarize(walls[0]).Median, summarize(walls[1]).Median))

	rs := tpds.NewRestorer(ix, eng.Repo(), 16)
	d, err = r.probe("tpds.restorer", root, func() error {
		for _, f := range co.fps {
			if _, err := rs.Chunk(f); err != nil {
				return err
			}
		}
		return nil
	})
	l.add("tpds.restorer_MBps", mbps(co.bytes, d))
	l.add("lpc.avoided_lookup_rate", rs.AvoidedLookupRate())
	return err
}

// probeDeployments repeats the workload's backup phase (base generation
// stored first where the workload has one, untimed) on two more empty
// deployments: an in-memory one (what durability costs) and a durable one
// driven by client 0 alone (what the second client adds).
func (r *run) probeDeployments(root int) error {
	w := r.cfg.w
	backup := func(name, dataDir string, n int) (float64, error) {
		sys, err := debar.StartLocal(1, debar.ServerConfig{IndexBits: indexBits, DataDir: dataDir})
		if err != nil {
			return 0, err
		}
		defer sys.Close()
		var logical int64
		each := func(job string) error {
			var stats [clients]client.BackupStats
			errs := make(chan error, n)
			for c := 0; c < n; c++ {
				go func(c int) {
					var err error
					stats[c], err = r.client(sys, c).Backup(fmt.Sprintf("%s-%d", job, c), r.trees[c].dir)
					errs <- err
				}(c)
			}
			var err error
			for c := 0; c < n; c++ {
				err = errors.Join(err, <-errs)
			}
			logical = 0
			for _, s := range stats {
				logical += s.LogicalBytes
			}
			return err
		}
		job := "probe"
		if w.base {
			if err := errors.Join(each("base"), sys.RunDedup2()); err != nil {
				return 0, fmt.Errorf("probe %s: base generation: %w", name, err)
			}
			if w.sameJob {
				job = "base"
			}
		}
		if w.tree {
			for c := 0; c < n; c++ {
				if _, err := r.trees[c].mutate(derive(r.cfg.seed, 'm', uint64(c), uint64(r.gen))); err != nil {
					return 0, err
				}
			}
			r.gen++
		}
		d, err := r.probe(name, root, func() error { return each(job) })
		return mbps(logical, d), err
	}
	mem, err := backup("server.mem_backup", "", clients)
	if err != nil {
		return err
	}
	one, err := backup("client.backup_1c", filepath.Join(r.cfg.workDir, "probe-1c"), 1)
	if err != nil {
		return err
	}
	durable := summarize(r.e2e["backup_MBps"]).Median
	l := r.layer
	l.add("server.mem_backup_MBps", mem)
	l.add("store.durable_gap", 1-ratio(durable, mem))
	l.add("client.backup_1c_MBps", one)
	l.add("client.scale_2v1", ratio(durable, one))
	return nil
}
