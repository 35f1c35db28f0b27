package kvstore

// Test seams for knobs the product keeps at their defaults.

// withMemtableBytes sets the memtable size that triggers a flush.
func withMemtableBytes(n int) Option {
	return func(o *options) { o.memtableBytes = n }
}

// withCompactionThreshold sets how many SSTables accumulate before a merge.
func withCompactionThreshold(n int) Option {
	return func(o *options) { o.compactionThreshold = n }
}
