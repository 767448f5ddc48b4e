package core

import (
	"testing"
)

func TestAdvisorFlagsVulnerableSnippet(t *testing.T) {
	a := NewAdvisor()
	adv, err := a.Review(vulnSnippet)
	if err != nil {
		t.Fatal(err)
	}
	if !adv.Flagged() || len(adv.Findings) == 0 {
		t.Fatalf("vulnerable snippet not flagged: %+v", adv)
	}
}

func TestAdvisorMatchesKnownVulnerability(t *testing.T) {
	a := NewAdvisor()
	err := a.AddKnown(KnownVulnerability{
		ID:          "CVE-like-1",
		Description: "DAO-style reentrant withdraw",
		Category:    "Reentrancy",
	}, vulnSnippet)
	if err != nil {
		t.Fatal(err)
	}
	if a.KnownCount() != 1 {
		t.Fatal("known count")
	}
	// A Type-II clone of the known fragment.
	renamed := `function take(uint value) public {
		msg.sender.call{value: value}("");
		balances[msg.sender] -= value;
	}`
	adv, err := a.Review(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.SimilarKnown) != 1 || adv.SimilarKnown[0].ID != "CVE-like-1" {
		t.Fatalf("known match missing: %+v", adv.SimilarKnown)
	}
	if adv.SimilarKnown[0].Score < 90 {
		t.Errorf("score: %.1f", adv.SimilarKnown[0].Score)
	}
}

func TestAdvisorCleanSnippetNotFlagged(t *testing.T) {
	a := NewAdvisor()
	_ = a.AddKnown(KnownVulnerability{ID: "k1", Category: "Reentrancy"}, vulnSnippet)
	adv, err := a.Review(`function ping() public returns (uint) { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Flagged() {
		t.Fatalf("benign snippet flagged: %+v", adv)
	}
}

func TestAdvisorToleratesUnparsableSnippet(t *testing.T) {
	a := NewAdvisor()
	adv, err := a.Review("how do I, like, use mapping??")
	if err == nil {
		// A parse error is acceptable; flagging must not happen.
		_ = adv
	}
	if adv.Flagged() {
		t.Fatalf("pseudo-code flagged: %+v", adv)
	}
}

// TestReviewOrdersTiesByID: two known fragments with one source score the
// same against a snippet, so Review and FindClones list them by id after the
// better match, whatever order they were registered in.
func TestReviewOrdersTiesByID(t *testing.T) {
	nearMiss := `function withdraw(uint amount) public {
	require(amount > 0);
	msg.sender.call{value: amount}("");
	balances[msg.sender] -= amount;
}`
	a := NewAdvisor()
	det := NewCloneDetector(DefaultCloneConfig())
	for _, k := range []struct{ id, src string }{{"tie-b", nearMiss}, {"tie-a", nearMiss}, {"exact", vulnSnippet}} {
		if err := a.AddKnown(KnownVulnerability{ID: k.id, Category: "Reentrancy"}, k.src); err != nil {
			t.Fatal(err)
		}
		if err := det.Add(k.id, k.src); err != nil {
			t.Fatal(err)
		}
	}
	adv, err := a.Review(vulnSnippet)
	if err != nil {
		t.Fatal(err)
	}
	clones, err := det.FindClones(vulnSnippet)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.SimilarKnown) != 3 || len(clones) != 3 {
		t.Fatalf("want 3 matches, got %+v and %+v", adv.SimilarKnown, clones)
	}
	for i, id := range []string{"exact", "tie-a", "tie-b"} {
		if adv.SimilarKnown[i].ID != id || clones[i].ID != id {
			t.Errorf("place %d: Review %q, FindClones %q, want %q", i, adv.SimilarKnown[i].ID, clones[i].ID, id)
		}
		if adv.SimilarKnown[i].Score != clones[i].Score {
			t.Errorf("place %d: Review scores %v, FindClones %v", i, adv.SimilarKnown[i].Score, clones[i].Score)
		}
	}
	if s := clones[1].Score; s != clones[2].Score || s >= clones[0].Score {
		t.Errorf("scores %v, %v, %v: want one best, then a tie", clones[0].Score, s, clones[2].Score)
	}
}
