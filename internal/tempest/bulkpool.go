package tempest

import "sync"

// bulkPool recycles MsgBulk bodies. Senders (the pre-send walk, gather
// replies, update pushes) take one with GetBulk, hand ownership to the
// message, and the receiver returns it with PutBulk once every entry is
// installed — so steady-state bulk traffic reuses entry arrays and payload
// slabs instead of allocating per message. sync.Pool makes the hand-off
// safe under the parallel engine, where sender and receiver run on
// different lanes.
var bulkPool = sync.Pool{
	New: func() any {
		return &Bulk{Entries: make([]BulkEntry, 0, 4)}
	},
}

// GetBulk returns an empty bulk message from the pool.
func GetBulk() MsgBulk {
	return MsgBulk{bulkPool.Get().(*Bulk)}
}

// PutBulk returns a bulk message's body to the pool. The caller must be
// the message's sole consumer and must not touch it or its entries'
// data afterwards; entry references are dropped so installed blocks
// don't pin the pool.
func PutBulk(m MsgBulk) {
	b := m.Bulk
	clear(b.Entries)
	*b = Bulk{Entries: b.Entries[:0], data: b.data[:0]}
	bulkPool.Put(b)
}
