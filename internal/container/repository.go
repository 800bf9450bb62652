package container

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"debar/internal/disksim"
	"debar/internal/fp"
)

// Repository is the chunk repository: a container log that provides the
// global de-duplication storage pool (paper §3.4). Append assigns and
// returns the container ID.
type Repository interface {
	// Append stores a sealed container and returns its assigned ID. It
	// must not keep c.Data after returning: a Writer reuses it for the
	// next container (Writer.Seal).
	Append(c *Container) (fp.ContainerID, error)
	// Load reads back a whole container (one large sequential I/O —
	// exactly how LPC prefetches, §3.3).
	Load(id fp.ContainerID) (*Container, error)
	// LoadMeta reads only the container's metadata section (what a
	// DDFS-style fingerprint prefetch needs), charging proportionally.
	LoadMeta(id fp.ContainerID) ([]ChunkMeta, error)
	// Release tells the repository that no cache holds container id any
	// more (the LPC evicted it), so storage it keeps resident for reads
	// may go. Slices handed out by Load stay valid. A no-op where reads
	// keep nothing resident, and for an unknown ID.
	Release(id fp.ContainerID)
	// Containers returns the number of stored containers.
	Containers() int64
	// Bytes returns the physical bytes stored (data sections).
	Bytes() int64
}

// ErrNotFound is returned by Load for an unknown container ID.
var ErrNotFound = errors.New("container: not found")

// MemRepository is a memory-backed repository. In accounting mode it keeps
// only chunk metadata, so experiments can run at fingerprint granularity
// while still accounting every stored byte (DESIGN.md §1.3).
type MemRepository struct {
	mu       sync.RWMutex
	metaOnly bool
	stored   []*Container
	byID     map[fp.ContainerID]*Container
	bytes    int64
	disk     *disksim.Disk // nil disables cost accounting
}

// NewMemRepository returns a memory repository. disk may be nil.
func NewMemRepository(metaOnly bool, disk *disksim.Disk) *MemRepository {
	return &MemRepository{
		metaOnly: metaOnly,
		disk:     disk,
		byID:     make(map[fp.ContainerID]*Container),
	}
}

// Append implements Repository, charging one sequential write of the
// container image.
func (r *MemRepository) Append(c *Container) (fp.ContainerID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := fp.ContainerID(len(r.stored))
	if id > fp.MaxContainerID {
		return 0, fmt.Errorf("container: repository full (40-bit ID space exhausted)")
	}
	stored := &Container{ID: id, Meta: c.Meta}
	if !r.metaOnly {
		stored.Data = slices.Clone(c.Data)
	}
	r.stored = append(r.stored, stored)
	r.byID[id] = stored
	r.bytes += c.DataBytes()
	if r.disk != nil {
		r.disk.SeqWrite(int64(headerSize+len(c.Meta)*metaEntrySize) + c.DataBytes())
	}
	return id, nil
}

// Load implements Repository, charging one sequential read of the
// container image.
func (r *MemRepository) Load(id fp.ContainerID) (*Container, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.byID[id]
	if c == nil {
		return nil, fmt.Errorf("%w: container %v", ErrNotFound, id)
	}
	if r.disk != nil {
		r.disk.SeqRead(int64(headerSize+len(c.Meta)*metaEntrySize) + c.DataBytes())
	}
	return c, nil
}

// LoadMeta implements Repository, charging one small sequential read of
// the metadata section only.
func (r *MemRepository) LoadMeta(id fp.ContainerID) ([]ChunkMeta, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := r.byID[id]
	if c == nil {
		return nil, fmt.Errorf("%w: container %v", ErrNotFound, id)
	}
	if r.disk != nil {
		r.disk.SeqRead(int64(headerSize + len(c.Meta)*metaEntrySize))
	}
	return c.Meta, nil
}

// Release implements Repository: the stored containers are the memory
// itself, so there is nothing to drop.
func (r *MemRepository) Release(fp.ContainerID) {}

// Containers implements Repository.
func (r *MemRepository) Containers() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return int64(len(r.stored))
}

// Bytes implements Repository.
func (r *MemRepository) Bytes() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.bytes
}

// Disk exposes the attached cost model (may be nil).
func (r *MemRepository) Disk() *disksim.Disk { return r.disk }

// ClusterRepository stripes containers over a set of storage nodes: the
// multi-node chunk repository of §2 ("a cluster of storage nodes with
// potentially perabytes of capacity"). Appends go to the node chosen by a
// placement function; the default places round-robin.
type ClusterRepository struct {
	mu    sync.Mutex
	nodes []*MemRepository
	home  map[fp.ContainerID]int // container → node
	next  uint64                 // global ID sequence
	rr    int
	Place func(c *Container, nodes int) int // optional placement override
}

// NewClusterRepository builds a repository over n storage nodes, each with
// its own disk cost model built from model (pass a zero DiskModel to
// disable accounting).
func NewClusterRepository(n int, metaOnly bool, model disksim.DiskModel) (*ClusterRepository, error) {
	if n <= 0 {
		return nil, fmt.Errorf("container: cluster needs at least one node, got %d", n)
	}
	cr := &ClusterRepository{home: make(map[fp.ContainerID]int)}
	for i := 0; i < n; i++ {
		var d *disksim.Disk
		if model != (disksim.DiskModel{}) {
			d = disksim.NewDisk(model)
		}
		cr.nodes = append(cr.nodes, NewMemRepository(metaOnly, d))
	}
	return cr, nil
}

// Append implements Repository with cluster-wide ID assignment.
func (cr *ClusterRepository) Append(c *Container) (fp.ContainerID, error) {
	cr.mu.Lock()
	node := cr.rr % len(cr.nodes)
	if cr.Place != nil {
		node = cr.Place(c, len(cr.nodes)) % len(cr.nodes)
	}
	cr.rr++
	id := fp.ContainerID(cr.next)
	cr.next++
	if id > fp.MaxContainerID {
		cr.mu.Unlock()
		return 0, fmt.Errorf("container: cluster repository full")
	}
	cr.home[id] = node
	cr.mu.Unlock()

	stored := &Container{ID: id, Meta: c.Meta}
	// Delegate to the node but override its local ID assignment.
	n := cr.nodes[node]
	n.mu.Lock()
	if !n.metaOnly {
		stored.Data = slices.Clone(c.Data)
	}
	n.stored = append(n.stored, stored)
	n.byID[id] = stored
	n.bytes += c.DataBytes()
	if n.disk != nil {
		n.disk.SeqWrite(int64(headerSize+len(c.Meta)*metaEntrySize) + c.DataBytes())
	}
	n.mu.Unlock()
	return id, nil
}

// Load implements Repository.
func (cr *ClusterRepository) Load(id fp.ContainerID) (*Container, error) {
	cr.mu.Lock()
	node, ok := cr.home[id]
	cr.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: container %v", ErrNotFound, id)
	}
	return cr.nodes[node].Load(id)
}

// LoadMeta implements Repository.
func (cr *ClusterRepository) LoadMeta(id fp.ContainerID) ([]ChunkMeta, error) {
	cr.mu.Lock()
	node, ok := cr.home[id]
	cr.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: container %v", ErrNotFound, id)
	}
	return cr.nodes[node].LoadMeta(id)
}

// Release implements Repository; a no-op, as for its nodes.
func (cr *ClusterRepository) Release(fp.ContainerID) {}

// Containers implements Repository.
func (cr *ClusterRepository) Containers() int64 {
	var total int64
	for _, n := range cr.nodes {
		total += n.Containers()
	}
	return total
}

// Bytes implements Repository.
func (cr *ClusterRepository) Bytes() int64 {
	var total int64
	for _, n := range cr.nodes {
		total += n.Bytes()
	}
	return total
}

// NodeOf returns which storage node holds a container.
func (cr *ClusterRepository) NodeOf(id fp.ContainerID) (int, bool) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	n, ok := cr.home[id]
	return n, ok
}

// Nodes returns the per-node repositories (for per-node clock inspection).
func (cr *ClusterRepository) Nodes() []*MemRepository { return cr.nodes }
