package stream

import (
	"cmp"
	"encoding/binary"
	"iter"
	"maps"
	"slices"

	"repro/internal/events"
)

// RequestedSet is the requested-epoch accounting behind the Fig. 4 budget
// metrics: every device-epoch a query window touched, with the queriers
// that touched it. The batch engine, the streaming service and the snapshot
// codec share it.
//
// Nothing in it is a pointer per device or device-epoch. Querier sites are
// interned to dense indices, and all lists live in one flat node arena:
// each device maps to the head of its epoch list, sorted by epoch, and each
// epoch node heads its querier list, sorted by site. The garbage collector
// never scans the set; marking a report window costs one map lookup and
// allocates nothing beyond amortized arena growth; and walking the lists
// of the devices in ID order is the canonical (device, epoch, site) order.
type RequestedSet struct {
	sites   []events.Site
	index   map[events.Site]uint32
	devices map[events.DeviceID]uint32 // 1 + arena index of the first epoch node
	nodes   []reqNode
	n       int // device-epochs marked
	// dirty holds the keys marked since the last drainDirty while delta
	// capture tracks them (durable mode); nil otherwise.
	dirty map[DevEpoch]struct{}
}

// reqNode is one element of a sorted arena list: in a device's list, val
// is an epoch (two's complement) and sub heads its querier list; in a
// querier list, val is an interned site. next and sub are 1 + an arena
// index, 0 for none.
type reqNode struct{ val, next, sub uint32 }

// NewRequestedSet returns an empty set.
func NewRequestedSet() *RequestedSet {
	return &RequestedSet{index: make(map[events.Site]uint32), devices: make(map[events.DeviceID]uint32)}
}

// Len returns the number of distinct device-epochs marked — the Fig. 4
// denominator. A nil set (Lean mode) has none.
func (s *RequestedSet) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Mark records that querier q's report window touched epochs first..last
// of device dev.
func (s *RequestedSet) Mark(dev events.DeviceID, q events.Site, first, last events.Epoch) {
	if first > last {
		return
	}
	qi, ok := s.index[q]
	if !ok {
		qi = uint32(len(s.sites))
		s.sites = append(s.sites, q)
		s.index[q] = qi
	}
	prev, cur := uint32(0), s.devices[dev]
	for e := first; e <= last; e++ {
		for cur != 0 && int32(s.nodes[cur-1].val) < int32(e) {
			prev, cur = cur, s.nodes[cur-1].next
		}
		if cur == 0 || int32(s.nodes[cur-1].val) != int32(e) {
			cur = s.link(prev, reqNode{val: uint32(int32(e)), next: cur})
			if prev == 0 {
				s.devices[dev] = cur
			}
			s.n++
		}
		s.addSite(cur, qi)
		if s.dirty != nil {
			s.dirty[DevEpoch{dev, e}] = struct{}{}
		}
	}
}

// addSite adds interned site qi to the querier list of epoch node at.
func (s *RequestedSet) addSite(at, qi uint32) {
	prev, cur := uint32(0), s.nodes[at-1].sub
	for cur != 0 {
		n := s.nodes[cur-1]
		if n.val == qi {
			return
		}
		if s.sites[n.val] > s.sites[qi] {
			break
		}
		prev, cur = cur, n.next
	}
	if id := s.link(prev, reqNode{val: qi, next: cur}); prev == 0 {
		s.nodes[at-1].sub = id
	}
}

// link appends n to the arena and, unless prev is 0 (n becomes a list
// head, which the caller records), links it after node prev.
func (s *RequestedSet) link(prev uint32, n reqNode) uint32 {
	s.nodes = append(s.nodes, n)
	id := uint32(len(s.nodes))
	if prev != 0 {
		s.nodes[prev-1].next = id
	}
	return id
}

// All yields every marked device-epoch in (device, epoch) order with its
// queriers in site order: the canonical order of the snapshot encoding and
// of the Fig. 4 sums, so float accumulation is deterministic run to run.
// The site slice is reused between iterations.
func (s *RequestedSet) All() iter.Seq2[DevEpoch, []events.Site] {
	return func(yield func(DevEpoch, []events.Site) bool) {
		var sites []events.Site
		for _, dev := range slices.Sorted(maps.Keys(s.devices)) {
			for at := s.devices[dev]; at != 0; at = s.nodes[at-1].next {
				key := DevEpoch{dev, events.Epoch(int32(s.nodes[at-1].val))}
				if !yield(key, s.appendSites(sites[:0], at)) {
					return
				}
			}
		}
	}
}

// appendSites appends the querier list of epoch node at.
func (s *RequestedSet) appendSites(dst []events.Site, at uint32) []events.Site {
	for i := s.nodes[at-1].sub; i != 0; i = s.nodes[i-1].next {
		dst = append(dst, s.sites[s.nodes[i-1].val])
	}
	return dst
}

// compare orders device-epochs by (device, epoch).
func (k DevEpoch) compare(o DevEpoch) int {
	return cmp.Or(cmp.Compare(k.Device, o.Device), cmp.Compare(k.Epoch, o.Epoch))
}

// encode packs the whole set (see encodeEntries).
func (s *RequestedSet) encode() []byte { return encodeEntries(s.n, s.All()) }

// trackDirty starts recording marked keys for drainDirty.
func (s *RequestedSet) trackDirty() { s.dirty = make(map[DevEpoch]struct{}) }

// drainDirty packs the entries marked since the previous drain (or since
// trackDirty) and forgets them.
func (s *RequestedSet) drainDirty() []byte {
	keys := slices.SortedFunc(maps.Keys(s.dirty), DevEpoch.compare)
	clear(s.dirty)
	return encodeEntries(len(keys), func(yield func(DevEpoch, []events.Site) bool) {
		var sites []events.Site
		for _, key := range keys {
			at := s.devices[key.Device]
			for int32(s.nodes[at-1].val) != int32(key.Epoch) {
				at = s.nodes[at-1].next
			}
			if !yield(key, s.appendSites(sites[:0], at)) {
				return
			}
		}
	})
}

// encodeEntries packs n entries, given in canonical order, as one binary
// blob, for the same reason as the slot tables: the accounting holds an
// entry per (device, epoch, querier) touch. Layout: u32 entry count, then
// per entry u64 device, u32 epoch (two's complement), u32 site count, and
// the length-prefixed site strings. No entries encode as nil.
func encodeEntries(n int, entries iter.Seq2[DevEpoch, []events.Site]) []byte {
	if n == 0 {
		return nil
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(n))
	for key, sites := range entries {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(key.Device))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(key.Epoch)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sites)))
		for _, site := range sites {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(site)))
			buf = append(buf, site...)
		}
	}
	return buf
}

// decodeRequestedSet rebuilds a set from its encoding. A table encode could
// not have written — truncated, trailing bytes, a zero-site entry, keys or
// sites out of order or repeated — is an error.
func decodeRequestedSet(buf []byte) (*RequestedSet, error) {
	s := NewRequestedSet()
	c, err := openRequested(buf)
	if err != nil {
		return nil, err
	}
	for {
		ok, err := c.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return s, nil
		}
		for _, site := range c.sites {
			s.Mark(c.key.Device, events.Site(site), c.key.Epoch, c.key.Epoch)
		}
	}
}
