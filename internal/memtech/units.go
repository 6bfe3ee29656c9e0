// Package memtech models the memory technologies used by FTSPM: SRAM and
// STT-RAM banks with optional parity or SEC-DED protection.
//
// It is the reproduction's substitute for NVSim [26] and for the Synopsys
// Design Compiler characterization of the parity/SEC-DED circuits used by
// the paper: it produces, for a bank of a given technology, protection
// level, and size, the per-access read/write energies, the leakage power,
// and the access latencies the simulator charges. The calibration constants
// are documented alongside the paper values they were fitted to.
package memtech

import "fmt"

// Picojoules measures dynamic energy of a single memory access.
type Picojoules float64

// Millijoules measures accumulated energy over a program execution.
type Millijoules float64

// Milliwatts measures leakage (static) power.
type Milliwatts float64

// Cycles counts processor clock cycles.
type Cycles uint64

// ClockHz is the simulated core clock. The paper's platform is an
// embedded ARM at nominal frequency; all latencies in Table IV are in
// clock cycles, so only the conversion of cycles to wall-clock seconds
// (used by the static-energy and endurance models) depends on this value.
const ClockHz = 1e9

// Seconds converts a cycle count to wall-clock seconds at ClockHz.
func (c Cycles) Seconds() float64 { return float64(c) / ClockHz }

// StaticEnergy returns the energy leaked by a structure of power p over
// the given number of cycles, in millijoules.
func StaticEnergy(p Milliwatts, c Cycles) Millijoules {
	return Millijoules(float64(p) * c.Seconds())
}

// WordBytes is the access granularity of every memory structure in the
// model: one 32-bit word, matching the paper's embedded ARM platform.
const WordBytes = 4

// WordsIn returns the number of word accesses needed to touch n bytes,
// rounding up to whole words.
func WordsIn(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + WordBytes - 1) / WordBytes
}

// String implements fmt.Stringer for energies in engineering notation.
func (p Picojoules) String() string { return fmt.Sprintf("%.2f pJ", float64(p)) }

// String implements fmt.Stringer.
func (m Millijoules) String() string { return fmt.Sprintf("%.4f mJ", float64(m)) }

// String implements fmt.Stringer.
func (m Milliwatts) String() string { return fmt.Sprintf("%.2f mW", float64(m)) }
