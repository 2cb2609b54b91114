// Package config defines the NDPBridge system configuration: the DRAM
// geometry, timing and energy constants of Table I, the evaluated designs of
// Table II, and the knobs swept by the paper's sensitivity studies
// (Figures 14–16).
package config

import (
	"errors"
	"fmt"
)

// Design selects which of the evaluated systems (Table II plus the two
// alternative architectures of Figure 11) to simulate.
type Design int

const (
	// DesignC forwards all cross-unit messages through the host CPU and
	// applies no load balancing — the execution model of existing
	// DRAM-bank NDP products.
	DesignC Design = iota
	// DesignB uses the NDPBridge hardware bridges for communication, but
	// no load balancing.
	DesignB
	// DesignW uses bridges plus traditional work stealing (with workload
	// correction) for load balancing.
	DesignW
	// DesignO is full NDPBridge: bridges plus data-transfer-aware load
	// balancing (in-advance scheduling, fine-grained stealing, hot-data
	// selection).
	DesignO
	// DesignH is the non-NDP host-only baseline: 16 out-of-order cores
	// share two DDR channels and steal tasks freely.
	DesignH
	// DesignR uses RowClone for intra-chip cross-bank transfers; messages
	// crossing chips fall back to host forwarding as in DesignC.
	DesignR
)

var designNames = map[Design]string{
	DesignC: "C", DesignB: "B", DesignW: "W",
	DesignO: "O", DesignH: "H", DesignR: "R",
}

func (d Design) String() string {
	if s, ok := designNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// ParseDesign converts a one-letter design name to a Design.
func ParseDesign(s string) (Design, error) {
	for d, name := range designNames {
		if s == name {
			return d, nil
		}
	}
	return 0, fmt.Errorf("config: unknown design %q (want C, B, W, O, H, or R)", s)
}

// UsesBridges reports whether the design routes messages through the
// NDPBridge hardware bridges.
func (d Design) UsesBridges() bool { return d == DesignB || d == DesignW || d == DesignO }

// LoadBalancing reports whether the design performs dynamic load balancing.
func (d Design) LoadBalancing() bool { return d == DesignW || d == DesignO }

// Geometry describes the DRAM organization. One NDP unit is attached to each
// bank, so Units() = Channels × RanksPerChannel × ChipsPerRank × BanksPerChip.
type Geometry struct {
	Channels        int
	RanksPerChannel int
	ChipsPerRank    int
	BanksPerChip    int
	BankBytes       uint64 // per-bank DRAM capacity
}

// Units returns the total number of NDP units (banks) in the system.
func (g Geometry) Units() int {
	return g.Channels * g.RanksPerChannel * g.ChipsPerRank * g.BanksPerChip
}

// UnitsPerRank returns the number of NDP units under one level-1 bridge.
func (g Geometry) UnitsPerRank() int { return g.ChipsPerRank * g.BanksPerChip }

// Ranks returns the total number of ranks (level-1 bridges).
func (g Geometry) Ranks() int { return g.Channels * g.RanksPerChannel }

// Timing holds latency and bandwidth constants, all expressed in NDP-core
// cycles (400 MHz ⇒ 2.5 ns per cycle) and bytes per core cycle.
type Timing struct {
	TRCD Cycles // ACTIVATE to column command, 17 ns
	TCAS Cycles // column command to data, 17 ns
	TRP  Cycles // PRECHARGE, 17 ns

	// ChipDQBytesPerCycle is the per-chip DQ bandwidth between an NDP
	// unit's bank and the level-1 bridge (x8 @ 2400 MT/s = 6 B/cycle).
	ChipDQBytesPerCycle uint64
	// ChannelBytesPerCycle is the 64-bit channel / rank-internal bus
	// bandwidth (2400 MT/s × 64 bits = 48 B/cycle).
	ChannelBytesPerCycle uint64

	// BankRowBytes is the DRAM row size used for row-buffer hit modeling.
	BankRowBytes uint64

	// TREFI is the refresh interval (7.8 µs ⇒ 3120 cycles) and TRFC the
	// refresh cycle time (~350 ns ⇒ 140 cycles) during which the bank is
	// unavailable. Zero disables refresh modeling.
	TREFI Cycles
	TRFC  Cycles

	// HostForwardOverhead is the fixed host software cost to receive,
	// examine and re-inject one message batch when the host CPU forwards
	// cross-unit traffic (designs C and R, and the level-2 software
	// bridge).
	HostForwardOverhead Cycles

	// HostBatchBytes is the largest chunk the host software moves per
	// channel transaction. The level-2 bridge reads full batches from the
	// level-1 mailboxes; host forwarding in design C rarely finds a full
	// batch in a single unit's mailbox, which is exactly its handicap.
	HostBatchBytes uint64

	// RowCloneCopy is the latency of one intra-chip RowClone bulk row copy
	// (two back-to-back ACTIVATEs ≈ 80 ns ⇒ 32 cycles).
	RowCloneCopy Cycles
}

// Cycles aliases sim time to avoid importing the sim package here.
type Cycles = uint64

// Energy holds the energy model constants (picojoules / milliwatts).
type Energy struct {
	DRAMAccessPJPer64b float64 // 150 pJ per 64-bit DRAM read/write
	CorePowerMW        float64 // 10 mW active power per wimpy core
	SRAMAccessPJ       float64 // per SRAM (cache/metadata) access
	ChannelPJPerByte   float64 // off-chip channel transfer energy
	StaticMWPerUnit    float64 // static power per NDP unit incl. periphery
}

// LoadBalance groups the software scheduling knobs of Section VI.
type LoadBalance struct {
	// Adv enables in-advance scheduling (hide transfer latency): load
	// balancing starts when W_queue drops below W_th instead of at empty.
	Adv bool
	// Fine enables fine-grained stealing (avoid congestion): transfer
	// only StealFactor × W_th per round instead of half the victim queue.
	Fine bool
	// Hot enables hot-data selection (reduce traffic): pick sketch-tracked
	// hot blocks and their reserved tasks first.
	Hot bool
	// StealFactor multiplies W_th to set the fine-grained steal amount.
	StealFactor int
	// Correction enables the toArrive workload correction (applied to W
	// too, per Section VII).
	Correction bool
}

// Sketch configures the HeavyGuardian-style hot-data sketch.
type Sketch struct {
	Buckets        int
	EntriesPerBkt  int
	DecayBase      float64 // b in P = b^-count, 1.08 per HeavyGuardian
	ReservedChunks int     // reserved-queue chunks per unit
}

// Metadata configures the migration-tracking structures.
type Metadata struct {
	UnitBorrowedEntries   int // entries in the per-unit dataBorrowed table
	UnitBorrowedWays      int
	BridgeBorrowedEntries int // entries in the per-bridge dataBorrowed table
	BridgeBorrowedWays    int
	BorrowedRegionBytes   uint64 // in-DRAM borrowed data region per unit
}

// Buffers configures bridge and unit SRAM buffering.
type Buffers struct {
	MailboxBytes       uint64 // per-unit in-DRAM mailbox region
	ScatterBufBytes    uint64 // per-child scatter buffer in the bridge
	BridgeMailboxBytes uint64 // bridge's own up-level mailbox
	BackupBufBytes     uint64 // bridge backup buffer
}

// Retry configures the fault-tolerant link-layer retry protocol the bridges
// run when fault injection is active. A run without an attached fault plan
// never consults these knobs.
type Retry struct {
	// BufBytes is the per-hop retransmit buffer watermark: when unacked
	// bytes exceed it, the sender stops admitting new traffic to the hop
	// (backpressure).
	BufBytes uint64
	// Timeout is the initial retransmission timeout in cycles.
	Timeout Cycles
	// BackoffCap bounds the exponential backoff of the retransmission
	// timeout.
	BackoffCap Cycles
}

// Trigger selects the communication triggering policy of Section V-C.
type Trigger int

const (
	// TriggerDynamic is the paper's policy: gather immediately when a
	// mailbox exceeds G_xfer, at I_min when there are idle children, and
	// never when mailboxes are empty.
	TriggerDynamic Trigger = iota
	// TriggerFixedIMin gathers unconditionally every I_min.
	TriggerFixedIMin
	// TriggerFixed2IMin gathers unconditionally every 2×I_min.
	TriggerFixed2IMin
)

func (t Trigger) String() string {
	switch t {
	case TriggerDynamic:
		return "dynamic"
	case TriggerFixedIMin:
		return "fixed-Imin"
	case TriggerFixed2IMin:
		return "fixed-2Imin"
	}
	return fmt.Sprintf("Trigger(%d)", int(t))
}

// Level2Transport selects how the level-2 bridge moves cross-rank messages
// (Section V-A): through the host CPU over the existing DDR channels (the
// paper's evaluated configuration), over DIMM-Link-style peer-to-peer links
// between the DIMMs, or over an ABC-DIMM-style shared broadcast bus. The
// paper notes NDPBridge is orthogonal to these inter-DIMM designs; the
// variants let that claim be measured.
type Level2Transport int

const (
	// L2Host is the paper's default: a host software runtime on the DDR
	// channels, paying a per-batch forwarding overhead.
	L2Host Level2Transport = iota
	// L2DIMMLink gives each DIMM a dedicated external link (DIMM-Link):
	// no host involvement, higher bandwidth, small port latency.
	L2DIMMLink
	// L2ABCDIMM connects the DIMMs with one shared broadcast bus
	// (ABC-DIMM): no host involvement, but all cross-rank traffic
	// serializes on the single bus.
	L2ABCDIMM
)

func (t Level2Transport) String() string {
	switch t {
	case L2Host:
		return "host"
	case L2DIMMLink:
		return "dimm-link"
	case L2ABCDIMM:
		return "abc-dimm"
	}
	return fmt.Sprintf("Level2Transport(%d)", int(t))
}

// Host configures the host CPU used for design H and for host forwarding.
type Host struct {
	Cores     int
	IPCFactor float64 // effective speedup per core cycle vs NDP in-order
	LLCBytes  uint64
	// DispatchCost is the per-task shared-queue pop and dispatch cost in
	// NDP-core cycles.
	DispatchCost Cycles
	// RandomAccessBW is the host's effective per-channel bandwidth for
	// random 64-byte accesses, in bytes per cycle — far below the 48 B/c
	// streaming peak because of row misses and access amplification.
	RandomAccessBW uint64
}

// Config is the complete system configuration. Construct with Default and
// modify, then Validate before use.
type Config struct {
	Design   Design
	Geometry Geometry
	Timing   Timing
	Energy   Energy

	GXfer      uint64 // gather/scatter and load-balance granularity (bytes)
	IState     Cycles // state-gather period
	MaxMsgSize int    // maximum single message size (bytes)

	LoadBalance LoadBalance
	Sketch      Sketch
	Metadata    Metadata
	Buffers     Buffers
	Retry       Retry
	Trigger     Trigger
	Host        Host

	// Level2 selects the cross-rank transport (default: host runtime).
	Level2 Level2Transport
	// DIMMLinkBytesPerCycle is the per-DIMM external link bandwidth when
	// Level2 is L2DIMMLink (≈25 GB/s ⇒ 64 B/cycle).
	DIMMLinkBytesPerCycle uint64

	// SplitDIMMBuffer models the chameleon-s split data-buffer DIMM: a
	// fraction of each chip's DQ pins is multiplexed for C/A dispatch,
	// reducing unit↔bridge data bandwidth (Section V-A / VIII-A).
	SplitDIMMBuffer bool
	// SplitDQCAPins is how many of the chip DQ pins are dedicated to C/A
	// when SplitDIMMBuffer is set (chameleon-s best: 2 of 8).
	SplitDQCAPins int

	Seed uint64
}

// Default returns the Table I configuration: 2 channels × 4 ranks × 8 chips
// × 8 banks = 512 units, 64 MB per bank, DDR4-2400 timing, design O.
func Default() Config {
	return Config{
		Design: DesignO,
		Geometry: Geometry{
			Channels:        2,
			RanksPerChannel: 4,
			ChipsPerRank:    8,
			BanksPerChip:    8,
			BankBytes:       64 << 20,
		},
		Timing: Timing{
			TRCD:                 7, // ceil(17 ns / 2.5 ns)
			TCAS:                 7,
			TRP:                  7,
			ChipDQBytesPerCycle:  6,  // x8 @ 2400 MT/s
			ChannelBytesPerCycle: 48, // 64-bit @ 2400 MT/s
			BankRowBytes:         8192,
			TREFI:                3120,
			TRFC:                 140,
			HostForwardOverhead:  24, // ~60 ns software path per transaction
			HostBatchBytes:       2048,
			RowCloneCopy:         32, // ~80 ns
		},
		Energy: Energy{
			DRAMAccessPJPer64b: 150,
			CorePowerMW:        10,
			SRAMAccessPJ:       5,
			ChannelPJPerByte:   20,
			StaticMWPerUnit:    2,
		},
		GXfer:      256,
		IState:     2000,
		MaxMsgSize: 64,
		LoadBalance: LoadBalance{
			Adv: true, Fine: true, Hot: true,
			StealFactor: 2, Correction: true,
		},
		Sketch: Sketch{
			Buckets: 16, EntriesPerBkt: 16,
			DecayBase: 1.08, ReservedChunks: 1280,
		},
		Metadata: Metadata{
			UnitBorrowedEntries:   1024, // 16 kB, 8-way
			UnitBorrowedWays:      8,
			BridgeBorrowedEntries: 65536, // 1 MB, 16-way
			BridgeBorrowedWays:    16,
			BorrowedRegionBytes:   1 << 20,
		},
		Buffers: Buffers{
			MailboxBytes:       1 << 20,
			ScatterBufBytes:    1 << 10,
			BridgeMailboxBytes: 128 << 10,
			BackupBufBytes:     64 << 10,
		},
		Retry: Retry{
			BufBytes:   4 << 10,
			Timeout:    4096,
			BackoffCap: 1 << 16,
		},
		Trigger: TriggerDynamic,
		Host: Host{
			Cores:          16,
			IPCFactor:      6.5, // 2.6 GHz OoO vs 400 MHz in-order, pointer-chasing IPC
			LLCBytes:       20 << 20,
			DispatchCost:   24, // shared task-pool pop + dispatch, ~60 ns
			RandomAccessBW: 12, // ~25% of streaming peak on random 64 B
		},
		SplitDQCAPins:         2,
		DIMMLinkBytesPerCycle: 64,
		Seed:                  1,
	}
}

// WithDesign returns a copy of c with the design replaced and the
// load-balancing switches set to match Table II.
func (c Config) WithDesign(d Design) Config {
	c.Design = d
	switch d {
	case DesignW:
		c.LoadBalance.Adv = false
		c.LoadBalance.Fine = false
		c.LoadBalance.Hot = false
		c.LoadBalance.Correction = true
	case DesignO:
		c.LoadBalance.Adv = true
		c.LoadBalance.Fine = true
		c.LoadBalance.Hot = true
		c.LoadBalance.Correction = true
	}
	return c
}

// WithUnits returns a copy of c scaled to n units by varying the number of
// ranks (64 units per rank, as in Figure 12). n must be a multiple of 64.
func (c Config) WithUnits(n int) (Config, error) {
	perRank := c.Geometry.UnitsPerRank()
	if perRank == 0 || n%perRank != 0 {
		return c, fmt.Errorf("config: %d units is not a multiple of %d units/rank", n, perRank)
	}
	ranks := n / perRank
	switch {
	case ranks <= 0:
		return c, fmt.Errorf("config: need at least one rank")
	case ranks == 1:
		c.Geometry.Channels = 1
		c.Geometry.RanksPerChannel = 1
	case ranks%2 == 0:
		c.Geometry.Channels = 2
		c.Geometry.RanksPerChannel = ranks / 2
	default:
		c.Geometry.Channels = 1
		c.Geometry.RanksPerChannel = ranks
	}
	return c, nil
}

// WithDQWidth returns a copy of c reconfigured for x4/x8/x16 DRAM chips while
// keeping the 64-bit channel and the rank count (Figure 15): x4 ⇒ 16
// chips/rank at 3 B/cycle each, x16 ⇒ 4 chips/rank at 12 B/cycle.
func (c Config) WithDQWidth(bits int) (Config, error) {
	switch bits {
	case 4:
		c.Geometry.ChipsPerRank = 16
		c.Timing.ChipDQBytesPerCycle = 3
	case 8:
		c.Geometry.ChipsPerRank = 8
		c.Timing.ChipDQBytesPerCycle = 6
	case 16:
		c.Geometry.ChipsPerRank = 4
		c.Timing.ChipDQBytesPerCycle = 12
	default:
		return c, fmt.Errorf("config: unsupported DQ width x%d (want 4, 8 or 16)", bits)
	}
	return c, nil
}

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate checks internal consistency. It is the construction-time gate:
// every violation it catches would otherwise surface as a panic or silent
// misbehaviour deep inside core.New or the bridges.
func (c Config) Validate() error {
	g := c.Geometry
	if g.Channels <= 0 || g.RanksPerChannel <= 0 || g.ChipsPerRank <= 0 || g.BanksPerChip <= 0 {
		return errors.New("config: geometry dimensions must be positive")
	}
	if !pow2(g.Channels) || !pow2(g.RanksPerChannel) || !pow2(g.ChipsPerRank) || !pow2(g.BanksPerChip) {
		return fmt.Errorf("config: geometry dimensions must be powers of two (channels=%d ranks=%d chips=%d banks=%d)",
			g.Channels, g.RanksPerChannel, g.ChipsPerRank, g.BanksPerChip)
	}
	if g.BankBytes == 0 || g.BankBytes&(g.BankBytes-1) != 0 {
		return errors.New("config: BankBytes must be a power of two")
	}
	if c.GXfer == 0 || c.GXfer%uint64(c.MaxMsgSize) != 0 {
		return fmt.Errorf("config: GXfer (%d) must be a positive multiple of MaxMsgSize (%d)", c.GXfer, c.MaxMsgSize)
	}
	if c.MaxMsgSize <= 0 {
		return errors.New("config: MaxMsgSize must be positive")
	}
	if c.IState == 0 {
		return errors.New("config: IState must be positive")
	}
	if c.Timing.ChipDQBytesPerCycle == 0 || c.Timing.ChannelBytesPerCycle == 0 {
		return errors.New("config: link bandwidths must be positive")
	}
	if c.Sketch.Buckets <= 0 || c.Sketch.EntriesPerBkt <= 0 {
		return errors.New("config: sketch dimensions must be positive")
	}
	if c.Sketch.DecayBase <= 1.0 {
		return errors.New("config: sketch decay base must exceed 1")
	}
	if c.Metadata.UnitBorrowedWays <= 0 || c.Metadata.UnitBorrowedEntries%c.Metadata.UnitBorrowedWays != 0 {
		return errors.New("config: unit dataBorrowed entries must divide evenly into ways")
	}
	if c.Metadata.BridgeBorrowedWays <= 0 || c.Metadata.BridgeBorrowedEntries%c.Metadata.BridgeBorrowedWays != 0 {
		return errors.New("config: bridge dataBorrowed entries must divide evenly into ways")
	}
	if c.LoadBalance.StealFactor <= 0 {
		return errors.New("config: StealFactor must be positive")
	}
	// W_th = f(GXfer, EffectiveChipDQ); both inputs must be positive or the
	// load-balance threshold degenerates to zero and bridges never trigger.
	if c.EffectiveChipDQ() == 0 {
		return errors.New("config: effective chip DQ bandwidth must be positive (W_th would be zero)")
	}
	b := c.Buffers
	if b.MailboxBytes == 0 || b.ScatterBufBytes == 0 || b.BridgeMailboxBytes == 0 || b.BackupBufBytes == 0 {
		return errors.New("config: buffer sizes must be positive")
	}
	if b.MailboxBytes < c.GXfer {
		return fmt.Errorf("config: MailboxBytes (%d) must hold at least one gather of GXfer (%d) bytes", b.MailboxBytes, c.GXfer)
	}
	if b.ScatterBufBytes < uint64(c.MaxMsgSize) || b.BridgeMailboxBytes < uint64(c.MaxMsgSize) || b.BackupBufBytes < uint64(c.MaxMsgSize) {
		return fmt.Errorf("config: bridge buffers must hold at least one MaxMsgSize (%d) message", c.MaxMsgSize)
	}
	if c.Metadata.BorrowedRegionBytes < c.GXfer {
		return fmt.Errorf("config: BorrowedRegionBytes (%d) must hold at least one GXfer (%d) chunk", c.Metadata.BorrowedRegionBytes, c.GXfer)
	}
	if b.MailboxBytes+c.Metadata.BorrowedRegionBytes > g.BankBytes {
		return fmt.Errorf("config: mailbox (%d) + borrowed region (%d) exceed BankBytes (%d)",
			b.MailboxBytes, c.Metadata.BorrowedRegionBytes, g.BankBytes)
	}
	if c.Retry.BufBytes < uint64(c.MaxMsgSize) {
		return fmt.Errorf("config: Retry.BufBytes (%d) must hold at least one MaxMsgSize (%d) message", c.Retry.BufBytes, c.MaxMsgSize)
	}
	if c.Retry.Timeout == 0 {
		return errors.New("config: Retry.Timeout must be positive")
	}
	if c.Retry.BackoffCap < c.Retry.Timeout {
		return fmt.Errorf("config: Retry.BackoffCap (%d) must be at least Retry.Timeout (%d)", c.Retry.BackoffCap, c.Retry.Timeout)
	}
	if c.Host.Cores <= 0 && c.Design == DesignH {
		return errors.New("config: host cores must be positive for design H")
	}
	if c.SplitDIMMBuffer {
		if c.SplitDQCAPins <= 0 || c.SplitDQCAPins >= 8 {
			return errors.New("config: SplitDQCAPins must be in (0, 8)")
		}
	}
	return nil
}

// EffectiveChipDQ returns the unit↔bridge bandwidth after accounting for the
// split-DIMM-buffer C/A multiplexing, in bytes per cycle (minimum 1).
func (c Config) EffectiveChipDQ() uint64 {
	bw := c.Timing.ChipDQBytesPerCycle
	if c.SplitDIMMBuffer {
		// chameleon-s: SplitDQCAPins of the 8 DQ pins carry C/A.
		bw = bw * uint64(8-c.SplitDQCAPins) / 8
		if bw == 0 {
			bw = 1
		}
	}
	return bw
}

// IMin returns the minimum gather interval: the time for one round-robin
// gather of G_xfer bytes across all banks of a rank over the rank bus.
func (c Config) IMin() Cycles {
	perBankCycles := (c.GXfer + c.Timing.ChannelBytesPerCycle - 1) / c.Timing.ChannelBytesPerCycle
	rounds := uint64(c.Geometry.BanksPerChip) // banks gathered chip-parallel
	d := perBankCycles * rounds
	if d == 0 {
		d = 1
	}
	return d
}
