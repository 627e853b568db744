package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"

	"github.com/diorama/continual/internal/relation"
	"github.com/diorama/continual/internal/storage"
)

// gen produces a workload's operation stream from its seed and keeps
// its own model of every table it writes: the slot of each live row,
// the row's current values, and the TID the store assigned. Decisions
// depend only on the random source and the model, never on engine
// state, so one seed always yields one stream. Every operation and every
// query definition is folded into an FNV-64a hash. The hash at the end
// of set-up and the hash after the first prefixOps timed operations
// are comparable between runs of different length.
type gen struct {
	rng    *rand.Rand
	tables []*tableModel

	h                 hash.Hash64
	ops, prefixAt     int
	setupHash, prefix uint64
	buf               [9]byte
}

// prefixOps is how many operations after set-up the prefix hash covers.
const prefixOps = 1000

type tableModel struct {
	name string
	tids []relation.TID
	rows [][]relation.Value
}

func newGen(seed int64, tables ...string) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed)), h: fnv.New64a()}
	for _, t := range tables {
		g.tables = append(g.tables, &tableModel{name: t})
	}
	return g
}

func (g *gen) count() {
	g.ops++
	if g.ops == g.prefixAt {
		g.prefix = g.h.Sum64()
	}
}

// endSetup marks the end of set-up: the seeded rows and the queries.
func (g *gen) endSetup() {
	g.setupHash = g.h.Sum64()
	g.prefixAt = g.ops + prefixOps
}

func (g *gen) hashInt(k byte, v int64) {
	g.buf[0] = k
	binary.LittleEndian.PutUint64(g.buf[1:], uint64(v))
	g.h.Write(g.buf[:])
}

func (g *gen) hashValues(vals []relation.Value) {
	for _, v := range vals {
		switch {
		case v.IsNull():
			g.hashInt('n', int64(v.Kind))
		case v.Kind == relation.TInt:
			g.hashInt('i', v.AsInt())
		case v.Kind == relation.TFloat:
			g.hashInt('f', int64(math.Float64bits(v.AsFloat())))
		default:
			g.hashInt('s', int64(len(v.AsString())))
			g.h.Write([]byte(v.AsString()))
		}
	}
}

// query records a continual-query definition in the stream.
func (g *gen) query(name, q string) {
	g.hashInt('q', int64(len(name)+len(q)))
	g.h.Write([]byte(name))
	g.h.Write([]byte(q))
	g.count()
}

func (g *gen) insert(tx *storage.Tx, t int, vals []relation.Value) error {
	m := g.tables[t]
	tid, err := tx.Insert(m.name, vals)
	if err != nil {
		return fmt.Errorf("insert %s: %w", m.name, err)
	}
	m.tids = append(m.tids, tid)
	m.rows = append(m.rows, vals)
	g.hashInt('I', int64(t))
	g.hashValues(vals)
	g.count()
	return nil
}

func (g *gen) update(tx *storage.Tx, t, slot int, vals []relation.Value) error {
	m := g.tables[t]
	if err := tx.Update(m.name, m.tids[slot], vals); err != nil {
		return fmt.Errorf("update %s: %w", m.name, err)
	}
	m.rows[slot] = vals
	g.hashInt('U', int64(t)<<32|int64(slot))
	g.hashValues(vals)
	g.count()
	return nil
}

func (g *gen) delete(tx *storage.Tx, t, slot int) error {
	m := g.tables[t]
	if err := tx.Delete(m.name, m.tids[slot]); err != nil {
		return fmt.Errorf("delete %s: %w", m.name, err)
	}
	last := len(m.tids) - 1
	m.tids[slot], m.rows[slot] = m.tids[last], m.rows[last]
	m.tids, m.rows = m.tids[:last], m.rows[:last]
	g.hashInt('D', int64(t)<<32|int64(slot))
	g.count()
	return nil
}

// row returns a copy of a live row's values, for building an update.
func (g *gen) row(t, slot int) []relation.Value {
	return append([]relation.Value(nil), g.tables[t].rows[slot]...)
}

// distinctSlots draws k distinct live slots of table t, so one
// transaction never touches a row twice.
func (g *gen) distinctSlots(t, k int) []int {
	n := len(g.tables[t].tids)
	out := make([]int, 0, k)
	for len(out) < k && len(out) < n {
		s := g.rng.Intn(n)
		dup := false
		for _, o := range out {
			dup = dup || o == s
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// hash returns the hash of the whole stream so far.
func (g *gen) hash() uint64 { return g.h.Sum64() }

func (g *gen) describe(e *envBlock) {
	e.add("ops_generated", fmt.Sprint(g.ops))
	e.add("ops_hash_setup", fmt.Sprintf("%016x", g.setupHash))
	e.add("ops_hash_prefix", fmt.Sprintf("%016x (first %d timed ops; 0 if fewer ran)", g.prefix, prefixOps))
	e.add("ops_hash_all", fmt.Sprintf("%016x", g.hash()))
}

// seedRows inserts n rows into table t in transactions of 1000 rows.
func (g *gen) seedRows(store *storage.Store, t, n int, mk func(i int) []relation.Value) error {
	for done := 0; done < n; {
		tx := store.Begin()
		for k := 0; k < 1000 && done < n; k++ {
			if err := g.insert(tx, t, mk(done)); err != nil {
				tx.Abort()
				return err
			}
			done++
		}
		if _, err := tx.Commit(); err != nil {
			return fmt.Errorf("seed %s: %w", g.tables[t].name, err)
		}
	}
	return nil
}
