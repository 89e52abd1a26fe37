package model

// ColumnCount lets the external test package count a set's columns after
// real matchers (which import this package) ran over it.
func ColumnCount(s *ObjectSet) int {
	s.cols.mu.Lock()
	defer s.cols.mu.Unlock()
	return len(s.cols.vals)
}
