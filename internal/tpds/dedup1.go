package tpds

import (
	"fmt"
	"time"

	"debar/internal/chunklog"
	"debar/internal/disksim"
	"debar/internal/fp"
	"debar/internal/prefilter"
)

// Dedup1Session is one backup job's Phase-I stream through a backup
// server's File Store (§3.3, §5.1). The client sends fingerprints; the
// server answers which chunks to transfer; transferred chunks land in the
// chunk log. The session accounts network bytes so dedup-1 throughput can
// be derived from the NIC model.
type Dedup1Session struct {
	Filter *prefilter.Filter
	Log    *chunklog.Mem
	Link   *disksim.Link // nil disables network accounting

	logicalBytes int64
	xferBytes    int64
	fpCount      int64
	newCount     int64
	// overflow tracks fingerprints the saturated filter could not admit;
	// they are still owed to the undetermined file.
	overflow []fp.FP
}

// fpWireBytes is the round-trip wire cost of offering one fingerprint:
// 20 bytes out plus a one-byte verdict (framing amortised into Link's
// per-message latency).
const fpWireBytes = fp.Size + 1

// NewDedup1Session wires a session. The filter should be primed with the
// previous run of the same job (the job-chain filtering fingerprints).
func NewDedup1Session(filter *prefilter.Filter, log *chunklog.Mem, link *disksim.Link) *Dedup1Session {
	return &Dedup1Session{Filter: filter, Log: log, Link: link}
}

// Offer processes one (fingerprint, size) pair from the client stream and
// reports whether the chunk's payload had to be transferred. data may be
// nil when the log runs in accounting mode.
func (s *Dedup1Session) Offer(f fp.FP, size uint32, data []byte) (transferred bool, err error) {
	s.fpCount++
	s.logicalBytes += int64(size)
	if s.Link != nil {
		s.Link.Transfer(fpWireBytes, 0)
	}
	s.xferBytes += fpWireBytes
	tr, admitted := s.Filter.Test(f)
	if !tr {
		return false, nil // duplicate: client discards the chunk
	}
	if !admitted {
		s.overflow = append(s.overflow, f)
	}
	s.newCount++
	if s.Link != nil {
		// Chunk payloads stream over the established connection; the
		// per-message overhead is part of the sustained NIC rate.
		s.Link.Transfer(int64(size), 0)
	}
	s.xferBytes += int64(size)
	if err := s.Log.Append(f, size, data); err != nil {
		return true, fmt.Errorf("tpds: dedup-1 logging: %w", err)
	}
	return true, nil
}

// Finish collects the undetermined fingerprint file for dedup-2: the
// filter's new-marked fingerprints plus any the saturated filter could not
// admit, de-duplicated. The new-marks are cleared but the fingerprints
// stay resident to filter the next adjacent version of the job.
func (s *Dedup1Session) Finish() []fp.FP {
	und := s.Filter.CollectNew(false)
	if len(s.overflow) > 0 {
		seen := make(map[fp.FP]bool, len(und))
		for _, f := range und {
			seen[f] = true
		}
		for _, f := range s.overflow {
			if !seen[f] {
				seen[f] = true
				und = append(und, f)
			}
		}
		s.overflow = s.overflow[:0]
	}
	return und
}

// Dedup1Stats summarises the session.
type Dedup1Stats struct {
	LogicalBytes     int64 // bytes the client offered
	TransferredBytes int64 // bytes that crossed the wire
	Fingerprints     int64
	NewFingerprints  int64
	NetTime          time.Duration // simulated wire time (0 if unmodelled)
}

// Stats returns the session counters.
func (s *Dedup1Session) Stats() Dedup1Stats {
	st := Dedup1Stats{
		LogicalBytes:     s.logicalBytes,
		TransferredBytes: s.xferBytes,
		Fingerprints:     s.fpCount,
		NewFingerprints:  s.newCount,
	}
	if s.Link != nil {
		st.NetTime = s.Link.Clock.Now()
	}
	return st
}

// CompressionRatio returns logical/transferred: the dedup-1 bandwidth
// saving the preliminary filter achieves (Fig 7's "dedup-1" series).
func (s *Dedup1Session) CompressionRatio() float64 {
	if s.xferBytes == 0 {
		return 0
	}
	return float64(s.logicalBytes) / float64(s.xferBytes)
}
