// Package semid implements Section 4.2, "Semantic IDs": identifier
// fields whose values the application treats as opaque can carry useful
// information instead of random bits.
//
// Two techniques from the paper:
//
//   - Embedding: partition (or site) information lives in the ID's high
//     bits, so routing a tuple to its partition is a shift instead of a
//     lookup in a per-tuple routing table that "can easily become a
//     resource and performance bottleneck".
//   - Reduction: if a proxy with the same semantic properties exists —
//     e.g. the tuple's physical address for a uniqueness-only ID — the
//     field can be dropped entirely (column stores infer the id from
//     the tuple offset).
package semid

import "fmt"

// Layout describes how an ID's 64 bits are divided between embedded
// partition bits (high) and sequence bits (low).
type Layout struct {
	PartitionBits int
}

// NewLayout validates the split. 1–16 partition bits are supported.
func NewLayout(partitionBits int) (Layout, error) {
	if partitionBits < 1 || partitionBits > 16 {
		return Layout{}, fmt.Errorf("semid: partition bits must be in [1,16], got %d", partitionBits)
	}
	return Layout{PartitionBits: partitionBits}, nil
}

// MaxPartition returns the largest encodable partition number.
func (l Layout) MaxPartition() uint64 { return 1<<uint(l.PartitionBits) - 1 }

// MaxSequence returns the largest encodable sequence number.
func (l Layout) MaxSequence() uint64 { return 1<<uint(64-l.PartitionBits) - 1 }

// Make builds an ID embedding the partition in the high bits.
func (l Layout) Make(partition, seq uint64) (uint64, error) {
	if partition > l.MaxPartition() {
		return 0, fmt.Errorf("semid: partition %d exceeds %d bits", partition, l.PartitionBits)
	}
	if seq > l.MaxSequence() {
		return 0, fmt.Errorf("semid: sequence %d exceeds %d bits", seq, 64-l.PartitionBits)
	}
	return partition<<uint(64-l.PartitionBits) | seq, nil
}

// Partition extracts the embedded partition.
func (l Layout) Partition(id uint64) uint64 {
	return id >> uint(64-l.PartitionBits)
}

// Sequence extracts the embedded sequence number.
func (l Layout) Sequence(id uint64) uint64 {
	return id & l.MaxSequence()
}

// Rewrite moves an existing ID to a new partition, keeping its
// sequence — the paper's "simply updating the ID value is enough to
// physically move the tuple" when data is clustered on the ID.
func (l Layout) Rewrite(id uint64, newPartition uint64) (uint64, error) {
	return l.Make(newPartition, l.Sequence(id))
}

// Router resolves a tuple ID to its partition.
type Router interface {
	// Route returns the partition of id, or an error if unknown.
	Route(id uint64) (uint64, error)
	// MemoryBytes estimates the router's resident size — the cost the
	// paper says limits routing-table scalability.
	MemoryBytes() int64
}

// TableRouter is the baseline: an explicit per-tuple routing table.
type TableRouter struct {
	m map[uint64]uint64
}

// NewTableRouter creates an empty routing table.
func NewTableRouter() *TableRouter {
	return &TableRouter{m: make(map[uint64]uint64)}
}

// Add registers a tuple's partition.
func (r *TableRouter) Add(id, partition uint64) { r.m[id] = partition }

// Route implements Router.
func (r *TableRouter) Route(id uint64) (uint64, error) {
	p, ok := r.m[id]
	if !ok {
		return 0, fmt.Errorf("semid: id %d not in routing table", id)
	}
	return p, nil
}

// MemoryBytes implements Router: ~48 bytes per entry for a Go map of
// uint64→uint64 (two words plus bucket overhead) — the point is the
// linear growth, not the constant.
func (r *TableRouter) MemoryBytes() int64 { return int64(len(r.m)) * 48 }

// EmbeddedRouter routes by decoding the partition from the ID itself.
type EmbeddedRouter struct {
	layout Layout
}

// NewEmbeddedRouter wraps a layout as a Router.
func NewEmbeddedRouter(l Layout) *EmbeddedRouter { return &EmbeddedRouter{layout: l} }

// Route implements Router — O(1), no state.
func (r *EmbeddedRouter) Route(id uint64) (uint64, error) {
	return r.layout.Partition(id), nil
}

// MemoryBytes implements Router: the router itself is a single integer.
func (r *EmbeddedRouter) MemoryBytes() int64 { return 8 }

var (
	_ Router = (*TableRouter)(nil)
	_ Router = (*EmbeddedRouter)(nil)
)
