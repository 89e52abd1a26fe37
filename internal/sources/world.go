package sources

import (
	"fmt"
	"math/rand"
	"strings"
)

// AuthorTruth is one real person of the ground-truth world.
type AuthorTruth struct {
	Idx   int
	First string
	Last  string
	// DupSpelling is a second DBLP rendering of the same person ("" if
	// none): the Table 9 duplicate-author scenario.
	DupSpelling string
	// ACMVariant is a second ACM rendering ("" if none), inflating ACM's
	// author count as in Table 1.
	ACMVariant string
	Community  int
}

// Name returns the primary "First Last" rendering.
func (a *AuthorTruth) Name() string { return a.First + " " + a.Last }

// VenueKind distinguishes conference editions from journal issues.
type VenueKind string

// Venue kinds; the paper's Table 4/5 breakdown distinguishes exactly these.
const (
	Conference VenueKind = "conference"
	Journal    VenueKind = "journal"
)

// VenueTruth is one venue instance: a conference edition or journal issue.
type VenueTruth struct {
	Idx    int
	Series string
	Kind   VenueKind
	Year   int
	Issue  int // 1-based for journals, 0 for conferences
	Volume int // journals only
	// Newsletter marks SIGMOD-Record-style venues carrying recurring
	// columns.
	Newsletter bool
}

// slug returns the series in id-friendly form.
func (v *VenueTruth) slug() string {
	return strings.ToLower(strings.ReplaceAll(v.Series, " ", ""))
}

// DBLPName renders the venue the way DBLP abbreviates it.
func (v *VenueTruth) DBLPName() string {
	if v.Kind == Conference {
		return fmt.Sprintf("%s %d", v.Series, v.Year)
	}
	return fmt.Sprintf("%s %d(%d)", v.Series, v.Volume, v.Issue)
}

// ACMName renders the venue in ACM DL's verbose style, deliberately far
// from the DBLP form so that "the use of attribute matchers based on
// general string matching is ineffective for finding venue same-mappings"
// (§5.4.1).
func (v *VenueTruth) ACMName() string {
	if v.Kind == Conference {
		switch v.Series {
		case "VLDB":
			return fmt.Sprintf("%s International Conference on Very Large Data Bases", ordinal(v.Year-1974))
		case "SIGMOD":
			return fmt.Sprintf("Proceedings of the ACM International Conference on Management of Data, %d", v.Year)
		default:
			return fmt.Sprintf("Proceedings of the %s Conference (%d)", v.Series, v.Year)
		}
	}
	switch v.Series {
	case "TODS":
		return fmt.Sprintf("ACM Transactions on Database Systems Volume %d Issue %d", v.Volume, v.Issue)
	case "VLDB Journal":
		return fmt.Sprintf("The International Journal on Very Large Data Bases Volume %d Issue %d", v.Volume, v.Issue)
	case "SIGMOD Record":
		return fmt.Sprintf("ACM SIGMOD Record Volume %d Issue %d", v.Volume, v.Issue)
	default:
		return fmt.Sprintf("%s Journal Volume %d Issue %d", v.Series, v.Volume, v.Issue)
	}
}

// ordinal renders 20 -> "20th" etc.
func ordinal(n int) string {
	suffix := "th"
	switch {
	case n%100 >= 11 && n%100 <= 13:
	case n%10 == 1:
		suffix = "st"
	case n%10 == 2:
		suffix = "nd"
	case n%10 == 3:
		suffix = "rd"
	}
	return fmt.Sprintf("%d%s", n, suffix)
}

// PubTruth is one real publication.
type PubTruth struct {
	Idx      int
	Title    string
	Venue    *VenueTruth
	Authors  []*AuthorTruth
	Year     int
	PageFrom int
	PageTo   int
	// Citations is the "true" citation count used for the GS/ACM citation
	// attributes and the fusion examples.
	Citations int
	// TwinOf >= 0 marks a journal version of the conference paper with
	// that index: identical title, different venue and year (Figure 7).
	TwinOf int
	// Recurring marks a recurring newsletter column instance.
	Recurring bool
}

// World is the generated ground truth.
type World struct {
	Cfg     Config
	Authors []*AuthorTruth
	Venues  []*VenueTruth
	Pubs    []*PubTruth
}

// GenerateWorld builds the deterministic ground-truth world for cfg.
func GenerateWorld(cfg Config) *World {
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &World{Cfg: cfg}
	w.generateAuthors(rng)
	w.generateVenues(rng)
	w.generatePublications(rng)
	w.assignAuthors(rng)
	return w
}

// generateAuthors fills the author pool with unique names, duplicate
// spellings and ACM variants.
func (w *World) generateAuthors(rng *rand.Rand) {
	used := make(map[string]bool)
	commSize := w.Cfg.CommunitySize
	if commSize < 2 {
		commSize = 12
	}
	for i := 0; i < w.Cfg.TruthAuthors; i++ {
		var first, last string
		for tries := 0; ; tries++ {
			first = firstNames[rng.Intn(len(firstNames))]
			last = lastNames[rng.Intn(len(lastNames))]
			if !used[first+" "+last] {
				break
			}
			if tries < 40 {
				continue // avoid manufacturing near-duplicate real people
			}
			// Pool exhausted: disambiguate with a middle initial.
			mid := string(rune('A' + rng.Intn(26)))
			first = first + " " + mid + "."
			if !used[first+" "+last] {
				break
			}
		}
		used[first+" "+last] = true
		a := &AuthorTruth{Idx: i, First: first, Last: last, Community: i / commSize}
		w.Authors = append(w.Authors, a)
	}
	// Duplicate DBLP spellings: shortened given name, like "Agathoniki
	// Trigoni" also appearing as "Niki Trigoni".
	for i := 0; i < w.Cfg.DupAuthorPairs && i < len(w.Authors); i++ {
		a := w.Authors[i*7%len(w.Authors)]
		if a.DupSpelling != "" {
			continue
		}
		a.DupSpelling = shortenGiven(a.First) + " " + a.Last
	}
	// ACM name variants: first initial only. Walk the pool until exactly
	// the configured number of variants is assigned.
	assigned := 0
	for i := 0; assigned < w.Cfg.ACMVariantAuthors && i < 4*len(w.Authors); i++ {
		a := w.Authors[(i*13+3)%len(w.Authors)]
		if a.ACMVariant != "" || a.DupSpelling != "" {
			continue
		}
		a.ACMVariant = string([]rune(a.First)[0]) + ". " + a.Last
		assigned++
	}
}

// shortenGiven derives a nickname-style shortening of a given name.
func shortenGiven(first string) string {
	runes := []rune(strings.Fields(first)[0])
	if len(runes) > 6 {
		short := string(runes[len(runes)-4:])
		return strings.ToUpper(short[:1]) + short[1:]
	}
	return string(runes[0]) + "."
}

// generateVenues enumerates conference editions and journal issues.
func (w *World) generateVenues(rng *rand.Rand) {
	idx := 0
	for year := w.Cfg.YearStart; year <= w.Cfg.YearEnd; year++ {
		for _, conf := range w.Cfg.Conferences {
			w.Venues = append(w.Venues, &VenueTruth{
				Idx: idx, Series: conf, Kind: Conference, Year: year,
			})
			idx++
		}
	}
	for j, journal := range w.Cfg.Journals {
		issues := 4
		if j < len(w.Cfg.JournalIssues) {
			issues = w.Cfg.JournalIssues[j]
		}
		volBase := volumeBase(journal)
		for year := w.Cfg.YearStart; year <= w.Cfg.YearEnd; year++ {
			for issue := 1; issue <= issues; issue++ {
				w.Venues = append(w.Venues, &VenueTruth{
					Idx: idx, Series: journal, Kind: Journal, Year: year,
					Issue: issue, Volume: year - volBase,
					Newsletter: journal == "SIGMOD Record",
				})
				idx++
			}
		}
	}
}

// volumeBase maps journal founding years so volume numbers look plausible.
func volumeBase(journal string) int {
	switch journal {
	case "TODS":
		return 1975
	case "VLDB Journal":
		return 1991
	case "SIGMOD Record":
		return 1971
	default:
		return 1980
	}
}

// generatePublications creates papers per venue, recurring newsletter
// columns, and journal twins of conference papers, then calibrates the
// total count.
func (w *World) generatePublications(rng *rand.Rand) {
	// Title diversity control: at full scale, unconstrained draws from the
	// pattern grammar produce near-collisions ("Efficient X for Y" vs
	// "Scalable X for Y") that would make every title matcher look bad.
	// Real titles collide far less, so a (noun, topic) combination is used
	// once. The pool is barely larger than the paper-scale publication
	// count and some seeds ask for more titles than it holds; once every
	// combination is taken it may recur, but only under a pattern it has
	// not appeared in. Seeds that never exhaust the pool draw as before.
	usedTitles := make(map[string]bool)
	usedCombos := make(map[string]uint8) // combination -> bit set of the patterns it appeared in
	freshTitle := func() string {
		exhausted := len(usedCombos) == titleCombos
		for {
			t, pattern, combo := w.drawTitle(rng)
			seen := usedCombos[combo]
			if usedTitles[t] || seen != 0 && (!exhausted || seen&(1<<pattern) != 0) {
				continue
			}
			usedTitles[t] = true
			usedCombos[combo] |= 1 << pattern
			return t
		}
	}
	pageCursor := func() int { return 1 + rng.Intn(12) }

	addPub := func(title string, v *VenueTruth, twinOf int, recurring bool) *PubTruth {
		from := pageCursor()
		p := &PubTruth{
			Idx: len(w.Pubs), Title: title, Venue: v, Year: v.Year,
			PageFrom: from, PageTo: from + 8 + rng.Intn(22),
			Citations: citationDraw(rng, w.Cfg.YearEnd-v.Year),
			TwinOf:    twinOf, Recurring: recurring,
		}
		w.Pubs = append(w.Pubs, p)
		return p
	}

	var journalIssues []*VenueTruth
	for _, v := range w.Venues {
		if v.Kind == Journal {
			journalIssues = append(journalIssues, v)
		}
	}

	// Conference papers, with probabilistic journal twins.
	var confPubs []*PubTruth
	for _, v := range w.Venues {
		if v.Kind != Conference {
			continue
		}
		n := w.Cfg.ConfPapersMin + rng.Intn(w.Cfg.ConfPapersMax-w.Cfg.ConfPapersMin+1)
		for i := 0; i < n; i++ {
			p := addPub(freshTitle(), v, -1, false)
			confPubs = append(confPubs, p)
		}
	}
	for _, p := range confPubs {
		if rng.Float64() >= w.Cfg.TwinProbability {
			continue
		}
		// The journal version appears one year later (or the same year at
		// the period boundary) in a random journal issue.
		year := p.Year + 1
		if year > w.Cfg.YearEnd {
			year = p.Year
		}
		var candidates []*VenueTruth
		for _, v := range journalIssues {
			if v.Year == year && !v.Newsletter {
				candidates = append(candidates, v)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		v := candidates[rng.Intn(len(candidates))]
		addPub(p.Title, v, p.Idx, false)
	}

	// Recurring newsletter columns: identical titles across issues.
	for _, v := range journalIssues {
		if !v.Newsletter {
			continue
		}
		for _, col := range recurringColumns {
			if rng.Float64() < w.Cfg.RecurringColumnIssueRate {
				addPub(col, v, -1, true)
			}
		}
	}

	// Regular journal papers.
	for _, v := range journalIssues {
		n := w.Cfg.JournalPapersMin + rng.Intn(w.Cfg.JournalPapersMax-w.Cfg.JournalPapersMin+1)
		for i := 0; i < n; i++ {
			addPub(freshTitle(), v, -1, false)
		}
	}

	// Calibrate the total to the Table 1 target by trimming or padding
	// regular journal papers.
	target := w.Cfg.TargetPublications
	if target <= 0 {
		return
	}
	for len(w.Pubs) > target {
		// Remove the last regular journal paper.
		for i := len(w.Pubs) - 1; i >= 0; i-- {
			p := w.Pubs[i]
			if p.Venue.Kind == Journal && p.TwinOf < 0 && !p.Recurring {
				w.Pubs = append(w.Pubs[:i], w.Pubs[i+1:]...)
				break
			}
		}
	}
	for len(w.Pubs) < target {
		v := journalIssues[rng.Intn(len(journalIssues))]
		addPub(freshTitle(), v, -1, false)
	}
	for i, p := range w.Pubs {
		p.Idx = i // reindex after trimming
	}
	// Twin indices may have shifted; rebuild them by title+venue kind.
	byIdxTitle := make(map[string]int)
	for i, p := range w.Pubs {
		if p.Venue.Kind == Conference {
			byIdxTitle[p.Title] = i
		}
	}
	for _, p := range w.Pubs {
		if p.TwinOf >= 0 {
			p.TwinOf = byIdxTitle[p.Title]
		}
	}
}

// citationDraw produces a plausible citation count growing with age.
func citationDraw(rng *rand.Rand, age int) int {
	base := rng.ExpFloat64() * 12
	return int(base * float64(age+1) / 2)
}

// drawTitle draws a synthetic database-paper title and reports its pattern
// id plus the (noun, topic) combination key used for diversity control.
func (w *World) drawTitle(rng *rand.Rand) (title string, pattern int, combo string) {
	adj := titleAdjectives[rng.Intn(len(titleAdjectives))]
	noun := titleNouns[rng.Intn(len(titleNouns))]
	topic := titleTopics[rng.Intn(len(titleTopics))]
	method := titleMethods[rng.Intn(len(titleMethods))]
	prop := titleProperties[rng.Intn(len(titleProperties))]
	pattern = rng.Intn(7)
	switch pattern {
	case 0:
		title = fmt.Sprintf("%s %s for %s", adj, noun, topic)
	case 1:
		title = fmt.Sprintf("%s %s with %s", adj, noun, method)
		topic = method // the discriminating combination is noun+method here
	case 2:
		title = fmt.Sprintf("On the %s of %s over %s", prop, noun, topic)
	case 3:
		title = fmt.Sprintf("%s: A %s Approach to %s", method, adj, noun)
		topic = method
	case 4:
		title = fmt.Sprintf("Towards %s %s in %s", adj, noun, topic)
	case 5:
		title = fmt.Sprintf("%s %s Revisited", noun, topic)
	default:
		title = fmt.Sprintf("%s for %s Using %s", noun, topic, method)
	}
	return title, pattern, noun + "|" + topic
}

// titleCombos is the number of distinct combination keys drawTitle reports:
// every noun with every topic or method (TestTitleVocabularyDistinct).
var titleCombos = len(titleNouns) * (len(titleTopics) + len(titleMethods))

// randomTitle draws a title without diversity bookkeeping (noise padding).
func (w *World) randomTitle(rng *rand.Rand) string {
	t, _, _ := w.drawTitle(rng)
	return t
}

// assignAuthors distributes authors over publications with community
// structure (clustered co-authorship), guarantees every author at least one
// publication, and gives recurring columns a stable editor.
func (w *World) assignAuthors(rng *rand.Rand) {
	if len(w.Authors) == 0 {
		return
	}
	nComm := w.Authors[len(w.Authors)-1].Community + 1
	communities := make([][]*AuthorTruth, nComm)
	for _, a := range w.Authors {
		communities[a.Community] = append(communities[a.Community], a)
	}
	cursor := make([]int, nComm) // rotating pick position per community

	pick := func(comm int, k int) []*AuthorTruth {
		members := communities[comm]
		if k > len(members) {
			k = len(members)
		}
		out := make([]*AuthorTruth, 0, k)
		for i := 0; i < k; i++ {
			out = append(out, members[(cursor[comm]+i)%len(members)])
		}
		cursor[comm] = (cursor[comm] + 1 + rng.Intn(3)) % len(members)
		return out
	}

	// Stable editors for recurring columns.
	editors := make(map[string]*AuthorTruth)
	for _, col := range recurringColumns {
		editors[col] = w.Authors[rng.Intn(len(w.Authors))]
	}

	for _, p := range w.Pubs {
		if p.TwinOf >= 0 {
			continue // twins copy the original's authors below
		}
		if p.Recurring {
			p.Authors = []*AuthorTruth{editors[p.Title]}
			continue
		}
		k := drawAuthorCount(rng, w.Cfg.MaxAuthorsPerPub)
		comm := rng.Intn(nComm)
		if k <= 5 {
			p.Authors = pick(comm, k)
		} else {
			// Large collaborations span communities; otherwise they would
			// turn whole communities into co-author cliques, which makes
			// every same-community pair look like a duplicate (§4.3).
			p.Authors = nil
			for len(p.Authors) < k {
				take := 2 + rng.Intn(3)
				if rest := k - len(p.Authors); take > rest {
					take = rest
				}
				p.Authors = append(p.Authors, pick(rng.Intn(nComm), take)...)
			}
		}
		// Occasional cross-community collaborator.
		if rng.Float64() < 0.1 {
			if extra := pick(rng.Intn(nComm), 1); len(extra) > 0 {
				p.Authors = append(p.Authors, extra[0])
			}
		}
		p.Authors = dedupeAuthors(p.Authors)
	}
	// Coverage fixup: every author appears at least once.
	used := make(map[int]bool)
	for _, p := range w.Pubs {
		for _, a := range p.Authors {
			used[a.Idx] = true
		}
	}
	var regular []*PubTruth
	for _, p := range w.Pubs {
		if !p.Recurring && p.TwinOf < 0 {
			regular = append(regular, p)
		}
	}
	for _, a := range w.Authors {
		if !used[a.Idx] && len(regular) > 0 {
			p := regular[rng.Intn(len(regular))]
			p.Authors = append(p.Authors, a)
		}
	}

	// Duplicate authors need a realistic detection signal: a stable set of
	// regular collaborators appearing on (nearly) all their papers, so that
	// the two DBLP spellings of the same person share co-authors (§4.3,
	// Table 9). Give each duplicate author at least four papers and inject
	// two stable collaborators into every one of them.
	pubsOf := make(map[int][]*PubTruth)
	for _, p := range regular {
		for _, a := range p.Authors {
			pubsOf[a.Idx] = append(pubsOf[a.Idx], p)
		}
	}
	for _, a := range w.Authors {
		if a.DupSpelling == "" {
			continue
		}
		// Pull the duplicate author out of large collaborations: their
		// co-author profile should be dominated by regular collaborators.
		own := pubsOf[a.Idx][:0]
		for _, p := range pubsOf[a.Idx] {
			if len(p.Authors) > 6 {
				keep := p.Authors[:0]
				for _, x := range p.Authors {
					if x.Idx != a.Idx {
						keep = append(keep, x)
					}
				}
				p.Authors = keep
				continue
			}
			own = append(own, p)
		}
		for len(own) < 4 && len(regular) > 0 {
			p := regular[rng.Intn(len(regular))]
			already := false
			for _, x := range p.Authors {
				if x.Idx == a.Idx {
					already = true
					break
				}
			}
			if !already && len(p.Authors) <= 5 {
				p.Authors = append(p.Authors, a)
				own = append(own, p)
			}
		}
		members := communities[a.Community]
		var collaborators []*AuthorTruth
		for _, m := range members {
			if m.Idx != a.Idx && m.DupSpelling == "" {
				collaborators = append(collaborators, m)
			}
			if len(collaborators) == 4 {
				break
			}
		}
		for _, p := range own {
			for _, c := range collaborators {
				present := false
				for _, x := range p.Authors {
					if x.Idx == c.Idx {
						present = true
						break
					}
				}
				if !present {
					p.Authors = append(p.Authors, c)
				}
			}
		}
		pubsOf[a.Idx] = own
	}

	// Journal twins list exactly the authors of their conference original;
	// this runs last so the coverage fixup cannot desynchronize them.
	for _, p := range w.Pubs {
		if p.TwinOf >= 0 {
			p.Authors = w.Pubs[p.TwinOf].Authors
		}
	}
}

// dedupeAuthors removes repeated truth authors, keeping first occurrence.
func dedupeAuthors(as []*AuthorTruth) []*AuthorTruth {
	seen := make(map[int]bool, len(as))
	out := as[:0]
	for _, a := range as {
		if !seen[a.Idx] {
			seen[a.Idx] = true
			out = append(out, a)
		}
	}
	return out
}

// drawAuthorCount draws the size of an author list: mostly 2-4, rarely up
// to maxAuthors (the paper saw 1..27 with an average near 3).
func drawAuthorCount(rng *rand.Rand, maxAuthors int) int {
	if maxAuthors < 1 {
		maxAuthors = 5
	}
	r := rng.Float64()
	switch {
	case r < 0.15:
		return 1
	case r < 0.45:
		return 2
	case r < 0.75:
		return 3
	case r < 0.90:
		return 4
	case r < 0.99:
		return 5
	default:
		// Rare large collaborations, skewed toward the small end; the
		// paper saw author lists up to 27.
		n := 6 + int(rng.ExpFloat64()*4)
		if n > maxAuthors {
			n = maxAuthors
		}
		return n
	}
}
