// Package a exercises the walseam analyzer: blocking I/O under the
// commitGate (direct and through a helper's summary), the commit-entry
// exemption, and TestPoint crash-matrix registration.
package a

import (
	"sync"

	"walseam_gate/wal"
)

type Engine struct {
	// nblb:lock commitGate
	gate sync.RWMutex

	log  *wal.Log
	disk wal.Disk
}

// Bad fsyncs directly under the gate.
func (e *Engine) Bad() {
	e.gate.Lock()
	e.log.Sync() // want "calls Log\.Sync \(nblb:blocking-io\) while holding \"commitGate\""
	e.gate.Unlock()
}

// BadInterface fsyncs through an interface whose method carries the tag.
func (e *Engine) BadInterface() {
	e.gate.Lock()
	e.disk.Sync() // want "calls Disk\.Sync \(nblb:blocking-io\) while holding \"commitGate\""
	e.gate.Unlock()
}

func (e *Engine) appendHelper(b []byte) {
	e.log.Append(b)
}

// BadIndirect reaches the log through a helper; the summary carries the
// blocking-io effect up to the gate-holding call site.
func (e *Engine) BadIndirect(b []byte) {
	e.gate.Lock()
	e.appendHelper(b) // want "call may reach Log\.Append \(nblb:blocking-io, via Engine\.appendHelper.*\) while holding \"commitGate\""
	e.gate.Unlock()
}

// Commit is the audited entry point: I/O under the gate is its job.
// nblb:commit-entry
func (e *Engine) Commit(b []byte) {
	e.gate.Lock()
	e.log.Append(b)
	e.log.Sync()
	e.gate.Unlock()
}

// GoodOutside does its I/O before taking the gate.
func (e *Engine) GoodOutside(b []byte) {
	e.log.Append(b)
	e.gate.Lock()
	e.gate.Unlock()
}

// Seams exercises TestPoint registration: wal:append has a crash-matrix
// case, zz:unregistered does not.
func Seams() {
	wal.TestPoint("wal:append")
	wal.TestPoint("zz:unregistered") // want "wal\.TestPoint\(\"zz:unregistered\"\) has no crash-matrix case"
}
