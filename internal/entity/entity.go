// Package entity implements Disconnect-style entity lists: mappings from
// registered domains to owning organisations. The paper starts from the
// Disconnect entity list (which covered only 45 of its 436 originator/
// destination domains) and fills the rest in manually (§5.2); Attributor
// mirrors that two-stage process.
package entity

// List maps registered domains to organisations.
type List struct {
	byDomain map[string]string
}

// NewList builds a list from a domain → organisation map.
func NewList(m map[string]string) *List {
	l := &List{byDomain: make(map[string]string, len(m))}
	for d, o := range m {
		l.byDomain[d] = o
	}
	return l
}

// OrgOf returns the organisation owning domain.
func (l *List) OrgOf(domain string) (string, bool) {
	o, ok := l.byDomain[domain]
	return o, ok
}

// Attributor resolves domain ownership the way the paper did: first the
// entity list, then a manual-research map, else unattributed.
type Attributor struct {
	list   *List
	manual *List
}

// NewAttributor combines an entity list with manual research results.
// Either may be nil.
func NewAttributor(list, manual *List) *Attributor {
	if list == nil {
		list = NewList(nil)
	}
	if manual == nil {
		manual = NewList(nil)
	}
	return &Attributor{list: list, manual: manual}
}

// Unattributed is returned for domains no source covers.
const Unattributed = "(unattributed)"

// OrgOf resolves a domain to an organisation.
func (a *Attributor) OrgOf(domain string) string {
	if o, ok := a.list.OrgOf(domain); ok {
		return o
	}
	if o, ok := a.manual.OrgOf(domain); ok {
		return o
	}
	return Unattributed
}
