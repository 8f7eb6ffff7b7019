package tranco

import (
	"strings"
	"testing"
)

func TestWrite(t *testing.T) {
	l := FromDomains([]string{"alpha.com", "beta.net", "gamma.org"})
	var b strings.Builder
	if err := Write(&b, l); err != nil {
		t.Fatal(err)
	}
	if b.String() != "1,alpha.com\n2,beta.net\n3,gamma.org\n" {
		t.Fatalf("output = %q", b.String())
	}
}
