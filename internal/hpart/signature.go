package hpart

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
)

// Signature returns a content hash of the snapshot's sub-partition
// inventory: the hierarchy depth plus every (key, generation, rows)
// triple, order-independent. Two layouts with equal signatures expose
// identical data to a query, so a resumed run observes exactly what the
// interrupted run saw.
//
// Epoch numbers cannot play this role across a process restart — a
// reloaded store starts over at epoch 0 — so durable cursors record the
// signature instead and compare it on resume: equal signature means the
// run can continue exactly; a mismatch means the data changed underneath
// and the run must restart from scratch on the current snapshot.
//
// The hash is computed once per layout (snapshots are immutable after
// publish) and cached.
func (l *Layout) Signature() uint64 {
	if s := l.sig.Load(); s != 0 {
		return s
	}
	keys := make([]SubPartKey, 0, len(l.SubPartRows))
	for k := range l.SubPartRows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Level != keys[j].Level {
			return keys[i].Level < keys[j].Level
		}
		return keys[i].Prop < keys[j].Prop
	})
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(l.NumLevels))
	for _, k := range keys {
		put(uint64(k.Level))
		put(uint64(k.Prop))
		put(l.gen[k])
		put(uint64(l.SubPartRows[k]))
	}
	s := h.Sum64()
	if s == 0 {
		s = 1 // reserve 0 as "not yet computed"
	}
	l.sig.Store(s)
	return s
}
