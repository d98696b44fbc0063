// Package core stubs the CPM/Engine cache anatomy at its true import
// path: propagation rows p, the ER form's per-output rows at the wrong
// patterns (cur, prev), and the two lazy caches (certificate, AEM
// columns) whose coherence the invalidation analyzer enforces.
package core

import "sync/atomic"

type Vec struct{ n int }

type State struct{ epoch int }

type Certificate struct{ ok bool }

type wrongSlice struct{ rows *CPM }

type CPM struct {
	p         [][]*Vec
	cur, prev *wrongSlice
	cert      atomic.Pointer[Certificate]
	aemFor    *State
}

// Build writes rows of a locally constructed receiver; a fresh CPM has
// empty caches, so no invalidation is required.
func Build(slots int) *CPM {
	c := &CPM{p: make([][]*Vec, slots)}
	c.p[0] = []*Vec{{n: 1}}
	return c
}

// BuildER attaches the ER form's slices to a fresh CPM: no invalidation
// is required either.
func BuildER(slots int) *CPM {
	c := Build(slots)
	c.cur = &wrongSlice{}
	return c
}

// Refresh recomputes rows and drops every cache — the paired-call shape.
func (c *CPM) Refresh(id int) {
	c.p[id] = nil
	c.cert.Store(nil)
	c.aemFor = nil
}

// refreshRows is the row writer Refresh and refreshER share; it drops the
// caches itself.
func (c *CPM) refreshRows(id int) {
	c.p[id] = nil
	c.cert.Store(nil)
	c.aemFor = nil
}

// refreshER moves the slices along after refreshing the rows, whose call
// dropped the caches.
func (c *CPM) refreshER(id int) {
	c.refreshRows(id)
	c.prev, c.cur = c.cur, &wrongSlice{}
}

// GoodWrite pairs the row write with a certificate drop.
func (c *CPM) GoodWrite(id int) {
	c.p[id] = nil
	c.cert.Store(nil)
}

// BadWrite mutates rows and leaves every cache stale.
func (c *CPM) BadWrite(id int) {
	c.p[id] = nil // want "without invalidating the lazy caches"
}

// BadGrow extends the row table without touching the caches.
func (c *CPM) BadGrow() {
	c.p = append(c.p, nil) // want "without invalidating the lazy caches"
}

// BadSliceSwap moves the ER form's slices along without a refresh: the
// certificate of the old structure survives.
func (c *CPM) BadSliceSwap() {
	c.prev, c.cur = c.cur, nil // want "without invalidating the lazy caches"
}

// BadSliceDrop drops the previous state's rows on another CPM's behalf.
func BadSliceDrop(c *CPM) {
	c.prev = nil // want "without invalidating the lazy caches"
}

// Acknowledged is an accepted exception.
func (c *CPM) Acknowledged(id int) {
	c.p[id] = nil //als:invalidate-ok caller drops the caches in the same transaction
}

// Engine mirrors the real engine's exported-read, Apply-mutate contract.
type Engine struct {
	Net  *Vec
	Vals *Vec
	St   *State
}

// Apply is the sanctioned mutation path; inside package core the Engine
// rule does not apply.
func (e *Engine) Apply(next *Vec) { e.Net = next }
