// Package ecc implements the error-correction analysis of the paper's
// Section 6.2.2 — the uncorrectable-bit-error-rate (UBER) model of
// Equations 2–6, the tolerable-RBER solver behind Table 1 — and a working
// Hamming SECDED(72,64) codec as a concrete substrate for ECC-based
// retention-failure mitigation.
//
// The analytic model treats DRAM retention failures as independent and
// uniformly distributed (as the paper assumes, citing prior validation), so
// the number of failing bits in a w-bit ECC word is Binomial(w, R) where R
// is the raw bit error rate. A k-bit-correcting code leaves an uncorrectable
// error whenever more than k bits fail:
//
//	UBER = (1/w) * sum_{n=k+1}^{w} C(w,n) R^n (1-R)^(w-n)
package ecc

import (
	"fmt"
	"math"

	"reaper/internal/stats"
)

// Code describes a k-bit-correcting ECC operating on w-bit words.
type Code struct {
	// Name is a display label ("No ECC", "SECDED", "ECC-2").
	Name string
	// K is the number of correctable bit errors per word.
	K int
	// WordBits is the total ECC word size w, data plus check bits.
	WordBits int
	// DataBits is the data payload per word.
	DataBits int
}

// NoECC is the k=0 baseline: a bare 64-bit data word.
func NoECC() Code { return Code{Name: "No ECC", K: 0, WordBits: 64, DataBits: 64} }

// SECDED is single-error-correcting, double-error-detecting Hamming over a
// 72-bit word holding 64 data bits (the paper's k=1 case: "8 additional bits
// per 64-bit data word").
func SECDED() Code { return Code{Name: "SECDED", K: 1, WordBits: 72, DataBits: 64} }

// ECC2 corrects two bit errors per word using 16 additional bits per 64-bit
// data word (the paper's k=2 case).
func ECC2() Code { return Code{Name: "ECC-2", K: 2, WordBits: 80, DataBits: 64} }

// StandardCodes returns the three ECC strengths of the paper's Table 1.
func StandardCodes() []Code { return []Code{NoECC(), SECDED(), ECC2()} }

// Validate reports whether the code parameters are consistent.
func (c Code) Validate() error {
	if c.K < 0 || c.WordBits <= 0 || c.DataBits <= 0 || c.DataBits > c.WordBits {
		return fmt.Errorf("ecc: invalid code %+v", c)
	}
	return nil
}

// UBER returns the uncorrectable bit error rate for the code at raw bit
// error rate rber (Equation 6).
func (c Code) UBER(rber float64) float64 {
	if rber <= 0 {
		return 0
	}
	if rber >= 1 {
		return 1.0 / float64(c.WordBits)
	}
	return stats.BinomialTail(c.WordBits, c.K, rber) / float64(c.WordBits)
}

// TolerableRBER returns the largest raw bit error rate at which the code
// still meets the target UBER, found by bisection in log space. Typical
// targets are UBERConsumer and UBEREnterprise.
func (c Code) TolerableRBER(targetUBER float64) float64 {
	if targetUBER <= 0 {
		return 0
	}
	lo, hi := math.Log(1e-20), math.Log(0.5)
	if c.UBER(math.Exp(lo)) > targetUBER {
		return 0
	}
	if c.UBER(math.Exp(hi)) <= targetUBER {
		return math.Exp(hi)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if c.UBER(math.Exp(mid)) <= targetUBER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Exp(lo)
}

// Target UBERs from the paper's definition of system failure.
const (
	// UBERConsumer is the consumer-application failure threshold (1e-15).
	UBERConsumer = 1e-15
	// UBEREnterprise is the enterprise-application threshold (1e-17).
	UBEREnterprise = 1e-17
)

// TolerableBitErrors returns the expected number of failing cells a device
// of the given byte capacity can carry while the code still meets the target
// UBER — the paper's Table 1 rows.
func (c Code) TolerableBitErrors(targetUBER float64, bytes int64) float64 {
	return c.TolerableRBER(targetUBER) * float64(bytes) * 8
}

// ---------------------------------------------------------------------------
// Working Hamming SECDED(72,64) codec.
// ---------------------------------------------------------------------------

// Word72 is one encoded SECDED word: 64 data bits plus 8 check bits.
type Word72 struct {
	Data  uint64
	Check uint8
}

// DecodeStatus classifies the outcome of decoding a Word72.
type DecodeStatus int

const (
	// Clean: no error detected.
	Clean DecodeStatus = iota
	// Corrected: a single-bit error was detected and corrected.
	Corrected
	// DoubleError: two bit errors were detected; the data is not
	// trustworthy and cannot be corrected.
	DoubleError
)

// String names the decode status for logs and reports.
func (s DecodeStatus) String() string {
	switch s {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case DoubleError:
		return "double-error"
	default:
		return fmt.Sprintf("DecodeStatus(%d)", int(s))
	}
}

// Bit layout: positions 1..71 hold the Hamming code; positions that are
// powers of two (1,2,4,8,16,32,64) are the 7 Hamming parity bits, the other
// 64 positions hold data bits in ascending order; position 0 holds the
// overall parity bit that upgrades SEC to SECDED.

// dataPositions lists the 64 non-parity positions in 1..71.
var dataPositions = func() [64]int {
	var out [64]int
	i := 0
	for pos := 1; pos < 72; pos++ {
		if pos&(pos-1) != 0 { // not a power of two
			out[i] = pos
			i++
		}
	}
	return out
}()

// EncodeSECDED encodes 64 data bits into a SECDED(72,64) word.
func EncodeSECDED(data uint64) Word72 {
	var word [72]bool
	for i, pos := range dataPositions {
		word[pos] = data>>uint(i)&1 == 1
	}
	// Hamming parity bits: parity bit at position 2^j covers every position
	// with bit j set.
	for j := 0; j < 7; j++ {
		p := false
		for pos := 1; pos < 72; pos++ {
			if pos&(1<<j) != 0 && pos&(pos-1) != 0 && word[pos] {
				p = !p
			}
		}
		word[1<<j] = p
	}
	// Overall parity over positions 1..71 stored at position 0.
	overall := false
	for pos := 1; pos < 72; pos++ {
		if word[pos] {
			overall = !overall
		}
	}
	word[0] = overall
	return packWord(word)
}

// DecodeSECDED decodes a (possibly corrupted) SECDED word, returning the
// best-effort data, the decode status, and for Corrected the flipped
// position (0..71) in the encoded word.
func DecodeSECDED(w Word72) (data uint64, status DecodeStatus, fixedPos int) {
	word := unpackWord(w)
	syndrome := 0
	for pos := 1; pos < 72; pos++ {
		if word[pos] {
			syndrome ^= pos
		}
	}
	overall := word[0]
	for pos := 1; pos < 72; pos++ {
		if word[pos] {
			overall = !overall
		}
	}
	// overall is now the parity of all 72 bits: false means parity checks.
	parityOK := !overall

	switch {
	case syndrome == 0 && parityOK:
		return extractData(word), Clean, -1
	case syndrome == 0 && !parityOK:
		// The overall parity bit itself flipped; data is intact.
		word[0] = !word[0]
		return extractData(word), Corrected, 0
	case syndrome != 0 && !parityOK:
		if syndrome < 72 {
			word[syndrome] = !word[syndrome]
			return extractData(word), Corrected, syndrome
		}
		// Syndrome points outside the word: multi-bit corruption.
		return extractData(word), DoubleError, -1
	default: // syndrome != 0 && parityOK
		return extractData(word), DoubleError, -1
	}
}

func extractData(word [72]bool) uint64 {
	var data uint64
	for i, pos := range dataPositions {
		if word[pos] {
			data |= 1 << uint(i)
		}
	}
	return data
}

func packWord(word [72]bool) Word72 {
	var out Word72
	for i, pos := range dataPositions {
		if word[pos] {
			out.Data |= 1 << uint(i)
		}
	}
	checkPositions := [8]int{0, 1, 2, 4, 8, 16, 32, 64}
	for i, pos := range checkPositions {
		if word[pos] {
			out.Check |= 1 << uint(i)
		}
	}
	return out
}

func unpackWord(w Word72) [72]bool {
	var word [72]bool
	for i, pos := range dataPositions {
		word[pos] = w.Data>>uint(i)&1 == 1
	}
	checkPositions := [8]int{0, 1, 2, 4, 8, 16, 32, 64}
	for i, pos := range checkPositions {
		word[pos] = w.Check>>uint(i)&1 == 1
	}
	return word
}
