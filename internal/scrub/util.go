package scrub

import (
	"reaper/internal/dram"
	"reaper/internal/mitigate"
)

// toDRAMAddr converts a word address to the dram.Addr of its first bit.
func toDRAMAddr(a mitigate.WordAddr) dram.Addr {
	return dram.Addr{Bank: a.Bank, Row: a.Row, Word: a.Word, Bit: 0}
}
