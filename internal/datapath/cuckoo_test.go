package datapath

import (
	"testing"

	"f4t/internal/sim"
	"f4t/internal/wire"
)

// churnTuple spreads keys across addresses and ports so the hash
// functions see realistic variety.
func churnTuple(i uint64) wire.FourTuple {
	return wire.FourTuple{
		LocalAddr:  wire.MakeAddr(10, 3, byte(i>>16), byte(i>>24)),
		RemoteAddr: wire.MakeAddr(10, 4, byte(i>>8), byte(i)),
		LocalPort:  uint16(i*7 + 1),
		RemotePort: uint16(i >> 32),
	}
}

// verifyAll checks every shadow-resident key is findable with the right
// value and that Len matches the shadow exactly.
func verifyAll(t *testing.T, c *CuckooTable, shadow map[wire.FourTuple]uint32) {
	t.Helper()
	if c.Len() != len(shadow) {
		t.Fatalf("Len() = %d, shadow has %d (stats %+v)", c.Len(), len(shadow), c.Stats())
	}
	for k, v := range shadow {
		got, ok := c.Lookup(k)
		if !ok {
			t.Fatalf("resident key %v lost (stats %+v)", k, c.Stats())
		}
		if got != v {
			t.Fatalf("key %v = %d, want %d", k, got, v)
		}
	}
}

// TestCuckooNoVictimLoss is the regression test for the silent-eviction
// bug: the old Insert, on a displacement chain that exhausted maxKicks,
// either dropped the chain's victim while reporting success for the new
// key, or re-placed the victim without counting it. Driving the table
// well past its nominal capacity forces those chains; the invariant is
// that every key ever acknowledged with Insert==true stays findable
// until deleted, and Len() never drifts from a shadow map.
func TestCuckooNoVictimLoss(t *testing.T) {
	const cap = 768
	c := NewCuckooTable(cap, 42)
	shadow := map[wire.FourTuple]uint32{}
	var refused int
	for i := uint64(0); i < 4*cap; i++ {
		k := churnTuple(i)
		if c.Insert(k, uint32(i)) {
			shadow[k] = uint32(i)
		} else {
			refused++
			// A refused insert must refuse cleanly: the key absent, no
			// resident casualty.
			if _, ok := c.Lookup(k); ok {
				t.Fatalf("refused insert %d is nevertheless findable", i)
			}
			verifyAll(t, c, shadow)
		}
		if i%64 == 0 {
			verifyAll(t, c, shadow)
		}
	}
	verifyAll(t, c, shadow)
	if refused == 0 {
		t.Fatal("capacity bound never engaged — the test did not stress the table")
	}
	if got := c.Stats().FullDrops; got != int64(refused) {
		t.Fatalf("FullDrops = %d, want %d", got, refused)
	}
	if len(shadow) != cap {
		t.Fatalf("resident = %d, want the capacity bound %d", len(shadow), cap)
	}
}

// TestCuckooHighLoadChurn drives the table to its capacity bound —
// 93.75 % of the slot ceiling by construction — and then churns
// deletions against fresh inserts while every resident key must remain
// findable. This is the ≥90 % load-factor regime a 2^20-flow sweep
// operates the flow table in.
func TestCuckooHighLoadChurn(t *testing.T) {
	// 15360 = 16384 * 15/16: the growth ceiling lands on 16384 slots, so
	// a full table sits at exactly the watermark load factor.
	const cap = 15360
	c := NewCuckooTable(cap, 7)
	shadow := map[wire.FourTuple]uint32{}
	keys := make([]wire.FourTuple, 0, cap)
	next := uint64(0)
	for len(shadow) < cap {
		k := churnTuple(next)
		if !c.Insert(k, uint32(next)) {
			t.Fatalf("insert refused below capacity at %d resident", len(shadow))
		}
		shadow[k] = uint32(next)
		keys = append(keys, k)
		next++
	}
	verifyAll(t, c, shadow)

	st := c.Stats()
	if load := float64(st.Size) / float64(st.Slots); load < 0.9 {
		t.Fatalf("load factor %.3f < 0.9 (size %d, slots %d)", load, st.Size, st.Slots)
	}
	if st.Resizes == 0 {
		t.Fatal("table never grew — amortized resize path untested")
	}

	// Churn at full load: delete a batch, insert replacements, verify.
	rng := sim.NewRand(99)
	for round := 0; round < 20; round++ {
		for b := 0; b < 512; b++ {
			i := rng.Intn(len(keys))
			k := keys[i]
			if _, resident := shadow[k]; !resident {
				continue // already churned out this round
			}
			if !c.Delete(k) {
				t.Fatalf("round %d: delete of resident key failed", round)
			}
			delete(shadow, k)
			keys[i] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
		}
		for len(shadow) < cap {
			k := churnTuple(next)
			if !c.Insert(k, uint32(next)) {
				t.Fatalf("round %d: refill refused at %d resident", round, len(shadow))
			}
			shadow[k] = uint32(next)
			keys = append(keys, k)
			next++
		}
		verifyAll(t, c, shadow)
	}
	if c.Stats().Kicks == 0 {
		t.Fatal("no displacement chains ran — the churn never stressed the table")
	}
}

// TestCuckooGrowthFromSmall checks a table declared for many flows
// starts tiny and pays for slots only as entries arrive.
func TestCuckooGrowthFromSmall(t *testing.T) {
	c := NewCuckooTable(1<<20, 5)
	if s := c.Stats().Slots; s > 256 {
		t.Fatalf("fresh table has %d slots — should start small", s)
	}
	base := c.MemBytes()
	for i := uint64(0); i < 50_000; i++ {
		if !c.Insert(churnTuple(i), uint32(i)) {
			t.Fatalf("insert %d refused", i)
		}
	}
	st := c.Stats()
	if st.Resizes == 0 {
		t.Fatal("no resizes recorded")
	}
	if c.MemBytes() <= base {
		t.Fatal("MemBytes did not track growth")
	}
	// Footprint stays proportional: no more than ~2 slots per entry even
	// right after a doubling.
	if st.Slots > 4*st.Size {
		t.Fatalf("slots %d > 4x size %d — growth overshoots", st.Slots, st.Size)
	}
	for i := uint64(0); i < 50_000; i++ {
		if v, ok := c.Lookup(churnTuple(i)); !ok || v != uint32(i) {
			t.Fatalf("key %d lost across growth", i)
		}
	}
}

// FuzzCuckoo runs arbitrary insert/delete/lookup sequences against a
// shadow map. Three bytes encode one op: selector, then a 10-bit key
// index (a small key space forces collisions and displacement chains).
func FuzzCuckoo(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 0, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 0, 0, 2, 0, 0})
	seed := make([]byte, 0, 3*300)
	for i := 0; i < 300; i++ {
		seed = append(seed, 0, byte(i), byte(i>>8))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 96 // small bound so the fuzzer reaches it quickly
		c := NewCuckooTable(cap, 1234)
		shadow := map[wire.FourTuple]uint32{}
		for i := 0; i+2 < len(data); i += 3 {
			idx := uint64(data[i+1]) | uint64(data[i+2]&3)<<8
			k := churnTuple(idx)
			switch data[i] % 3 {
			case 0:
				ok := c.Insert(k, uint32(idx))
				_, existed := shadow[k]
				if existed && !ok {
					t.Fatal("insert of resident key refused")
				}
				if !existed && !ok && len(shadow) < cap {
					t.Fatalf("insert refused below capacity (%d resident)", len(shadow))
				}
				if ok {
					shadow[k] = uint32(idx)
				}
			case 1:
				got := c.Delete(k)
				_, want := shadow[k]
				if got != want {
					t.Fatalf("delete = %v, shadow says %v", got, want)
				}
				delete(shadow, k)
			case 2:
				v, ok := c.Lookup(k)
				want, wantOK := shadow[k]
				if ok != wantOK || (ok && v != want) {
					t.Fatalf("lookup = %d,%v want %d,%v", v, ok, want, wantOK)
				}
			}
		}
		if c.Len() != len(shadow) {
			t.Fatalf("Len %d != shadow %d", c.Len(), len(shadow))
		}
		for k, v := range shadow {
			if got, ok := c.Lookup(k); !ok || got != v {
				t.Fatalf("resident key lost at end")
			}
		}
	})
}
