package chunklog

// View is a stable snapshot of the log taken at a point in time: it covers
// exactly the records appended before View() returned and can be iterated
// WITHOUT holding the log's mutex, so dedup-2 replays the snapshot while
// dedup-1 keeps appending behind it, and several readers may replay the
// same snapshot concurrently. Appends past the snapshot boundary are
// invisible to the view; Reset must not be called while views are live
// (the server's dedup-2 pass guarantees this: Reset happens only at the
// end of the pass that owns the view).
type View struct {
	l    *Log
	recs []Record // memory-backed snapshot (nil for WAL logs)
	end  int64    // snapshot byte bound for WAL logs
}

// View captures a snapshot of the current log contents.
func (l *Log) View() *View {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.view()
}

// view is View for a caller already holding the log's lock.
//
// debarvet:holds mu -- View and Iterate call it with l.mu held.
func (l *Log) view() *View {
	v := &View{l: l}
	if l.file != nil {
		v.end = l.end
	} else {
		// Appends only ever append, so this slice header is an immutable
		// prefix even while the log grows (or is Reset) underneath.
		v.recs = l.recs
	}
	return v
}

// Len returns the number of records the snapshot covers (a scan for WAL
// logs).
func (v *View) Len() (int64, error) {
	if v.l.file == nil {
		return int64(len(v.recs)), nil
	}
	var n int64
	err := v.Iterate(func(Record) error { n++; return nil })
	return n, err
}

// Iterate replays the snapshot's records in append order. It holds no
// lock, so any number of views (or iterations of one view) may run
// concurrently; WAL reads are positional (ReadAt), each walk through its
// own read window, and a Record's Data is valid only during fn (see
// Record). No sequential-read charge is made here: the disk cost model is
// charged by Log.Iterate.
func (v *View) Iterate(fn func(Record) error) error {
	if v.l.file != nil {
		return walkWAL(v.l.file, v.end, fn)
	}
	for _, r := range v.recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}
