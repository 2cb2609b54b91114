// Package rowclone models the design-R baseline: RowClone-style in-DRAM bulk
// copy serves cross-bank transfers within a chip over the chip's shared
// internal data bus, while cross-chip messages still go through host
// forwarding. Load balancing is not possible with RowClone's hardware alone
// (Section VII), so the engine only moves messages.
package rowclone

import (
	"ndpbridge/internal/config"
	"ndpbridge/internal/dram"
	"ndpbridge/internal/msg"
	"ndpbridge/internal/ndpunit"
	"ndpbridge/internal/sim"
)

// Env provides global services.
type Env interface {
	Engine() *sim.Engine
	Cfg() *config.Config
	Map() *dram.AddrMap
}

// Stats counts RowClone activity.
type Stats struct {
	Copies   uint64
	Messages uint64
	Bytes    uint64
}

// Engine drives one copy engine per DRAM chip.
type Engine struct {
	env Env
	// eng/cfg cache env.Engine()/env.Cfg() — both stable for the system's
	// lifetime — so hot paths skip the interface dispatch.
	eng     *sim.Engine       //ndplint:nosnap cached wiring, set at construction
	cfg     *config.Config    //ndplint:nosnap cached wiring, set at construction
	chips   [][]*ndpunit.Unit // units grouped by chip
	running []bool
	st      Stats

	// Per-chip pre-bound callbacks and the one in-flight copy batch per
	// chip (running[chip] guards reuse).
	sweepFn func()
	stepFns []func()
	copyFns []func()
	batch   [][]*msg.Message
}

// New groups units by chip and builds the engine.
func New(env Env, units []*ndpunit.Unit) *Engine {
	banks := env.Cfg().Geometry.BanksPerChip
	nChips := len(units) / banks
	chips := make([][]*ndpunit.Unit, nChips)
	for c := 0; c < nChips; c++ {
		chips[c] = units[c*banks : (c+1)*banks]
	}
	e := &Engine{env: env, eng: env.Engine(), cfg: env.Cfg(), chips: chips, running: make([]bool, nChips)}
	e.sweepFn = e.sweep
	e.stepFns = make([]func(), nChips)
	e.copyFns = make([]func(), nChips)
	e.batch = make([][]*msg.Message, nChips)
	for c := 0; c < nChips; c++ {
		c := c
		e.stepFns[c] = func() { e.step(c) }
		e.copyFns[c] = func() { e.finishCopy(c) }
	}
	return e
}

// Stats returns the counters.
func (e *Engine) Stats() Stats { return e.st }

// Start begins periodic polling of the chip mailboxes.
func (e *Engine) Start() {
	e.eng.After(e.cfg.IState/4, e.sweepFn)
}

func (e *Engine) sweep() {
	for c := range e.chips {
		e.ensureLoop(c)
	}
	e.eng.After(e.cfg.IState/4, e.sweepFn)
}

func (e *Engine) ensureLoop(chip int) {
	if e.running[chip] {
		return
	}
	if e.pick(chip) < 0 {
		return
	}
	e.running[chip] = true
	e.eng.After(0, e.stepFns[chip])
}

func (e *Engine) pick(chip int) int {
	for i, u := range e.chips[chip] {
		if u.ChipMailUsed() > 0 {
			return i
		}
	}
	return -1
}

// step performs one RowClone transfer: a batch of same-chip messages moves
// from one bank's mailbox to destination banks at bulk-row-copy latency.
func (e *Engine) step(chip int) {
	cfg := e.cfg
	eng := e.eng
	src := e.pick(chip)
	if src < 0 {
		for _, u := range e.chips[chip] {
			if u.HasBacklog() {
				e.eng.After(e.cfg.IMin(), e.stepFns[chip])
				return
			}
		}
		e.running[chip] = false
		return
	}
	ms := e.chips[chip][src].DrainChipMail(cfg.Timing.BankRowBytes)
	var bytes uint64
	for _, m := range ms {
		bytes += m.Size()
	}
	end := eng.Now() + cfg.Timing.RowCloneCopy
	e.st.Copies++
	e.st.Messages += uint64(len(ms))
	e.st.Bytes += bytes
	e.batch[chip] = ms
	eng.At(end, e.copyFns[chip])
}

// finishCopy delivers one completed RowClone batch and continues the loop.
func (e *Engine) finishCopy(chip int) {
	units := e.chips[chip]
	banks := e.cfg.Geometry.BanksPerChip
	for _, m := range e.batch[chip] {
		if m.Dst >= 0 {
			units[m.Dst%banks].Deliver(m)
		}
	}
	e.batch[chip] = nil
	e.step(chip)
}
