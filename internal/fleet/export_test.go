package fleet

// Store exposes the replicated log to tests, the external ones included.
func (f *Fleet) Store() *Store { return f.store }

// NextSeq is the sequence number the next local label will be stamped with.
func (s *Store) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}
