package model

// ColumnLimit and ColumnCount let the external test package check the store's
// bound against real matchers (which import this package).
const ColumnLimit = columnLimit

func ColumnCount(s *ObjectSet) int {
	s.cols.mu.Lock()
	defer s.cols.mu.Unlock()
	return len(s.cols.vals)
}
