package core

import (
	"bytes"
	"hash/maphash"
)

// stageInline is how many members a stageSet holds before it spills to
// a map: a linear scan over this few is cheaper than hashing, and the
// transactions the served workloads run stage fewer.
const stageInline = 8

// stageSet is the one set type a transaction stages with: the unique
// keys it claims, the unique keys it frees and the rows it writes. A
// member is an owner — the *Index a key belongs to, or a writeTarget —
// plus a key that is a span of the transaction's arena (nil for a write
// target), carrying a value (claimRef for claims, nothing otherwise).
//
// The first stageInline members live in an inline array and are found
// by a linear scan. Past that the set spills: a map from (owner, key
// hash) to the newest member under it, with older members of the same
// hash chained behind, keeps a lookup O(1) however large the
// transaction grows. Callers never add a member that is already there,
// and members leave only newest-first (truncate), which is all a failed
// batch needs.
type stageSet[O comparable, V any] struct {
	members []stageMember[O, V] // in insertion order; inline's until it outgrows it
	inline  [stageInline]stageMember[O, V]
	spill   map[spillKey[O]]int32 // nil until members outgrow inline
}

type stageMember[O comparable, V any] struct {
	owner O
	key   []byte
	val   V
	hash  uint64 // of key, once spilled
	older int32  // 1 + the next older member under the same spill key; 0 = none
}

type spillKey[O comparable] struct {
	owner O
	hash  uint64
}

var stageSeed = maphash.MakeSeed()

// find returns the member under (owner, key), or nil.
func (s *stageSet[O, V]) find(owner O, key []byte) *stageMember[O, V] {
	if s.spill == nil {
		for i := range s.members {
			if m := &s.members[i]; m.owner == owner && bytes.Equal(m.key, key) {
				return m
			}
		}
		return nil
	}
	for i := s.spill[spillKey[O]{owner, maphash.Bytes(stageSeed, key)}]; i != 0; {
		m := &s.members[i-1]
		if m.owner == owner && bytes.Equal(m.key, key) {
			return m
		}
		i = m.older
	}
	return nil
}

// add inserts a member that is not in the set yet.
func (s *stageSet[O, V]) add(owner O, key []byte, val V) {
	if s.members == nil {
		s.members = s.inline[:0]
	}
	s.members = append(s.members, stageMember[O, V]{owner: owner, key: key, val: val})
	switch {
	case s.spill != nil:
		s.index(len(s.members) - 1)
	case len(s.members) > stageInline:
		s.spill = make(map[spillKey[O]]int32, 2*len(s.members))
		for i := range s.members {
			s.index(i)
		}
	}
}

func (s *stageSet[O, V]) index(i int) {
	m := &s.members[i]
	m.hash = maphash.Bytes(stageSeed, m.key)
	k := spillKey[O]{m.owner, m.hash}
	m.older = s.spill[k]
	s.spill[k] = int32(i + 1)
}

// reset empties the set for a new transaction, back on its inline array.
func (s *stageSet[O, V]) reset() {
	clear(s.inline[:])
	s.members, s.spill = nil, nil
}

// truncate removes every member added after the set held n.
func (s *stageSet[O, V]) truncate(n int) {
	for i := len(s.members) - 1; i >= n && s.spill != nil; i-- {
		m := &s.members[i]
		if k := (spillKey[O]{m.owner, m.hash}); m.older == 0 {
			delete(s.spill, k)
		} else {
			s.spill[k] = m.older
		}
	}
	clear(s.members[n:])
	s.members = s.members[:n]
}
