package node

import (
	"bytes"
	"errors"
	"testing"

	"repchain/internal/crypto"
	"repchain/internal/identity"
	"repchain/internal/ledger"
	"repchain/internal/network"
	"repchain/internal/tx"
)

// TestAcceptBlockChecksTxRoot: a roster-signed block whose transaction
// root does not commit its records is refused, as a bad proposer
// signature is, so no replica holds a chain ledger.VerifyChain calls
// corrupt; the same records under their true root are taken.
func TestAcceptBlockChecksTxRoot(t *testing.T) {
	fx := newFixture(t, nil)
	gov := fx.roster.Governors[0]
	rec := ledger.Record{Signed: parityTx(fx, 1, true), Label: tx.LabelValid, Status: tx.StatusValid}
	blk, err := ledger.NewBlock(nil, []ledger.Record{rec}, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := blk
	bad.TxRoot = crypto.Sum([]byte("not the records"))
	bad.SignAs(gov.ID, gov.PrivateKey)
	if err := fx.governor.AcceptBlock(bad.EncodeBytes()); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("block with a wrong root: error = %v, want ErrBadMessage", err)
	}
	if h := fx.governor.Store().Height(); h != 0 {
		t.Fatalf("height = %d after a wrong-root block, want 0", h)
	}
	blk.SignAs(gov.ID, gov.PrivateKey)
	if err := fx.governor.AcceptBlock(blk.EncodeBytes()); err != nil {
		t.Fatalf("AcceptBlock() error = %v", err)
	}
	if err := ledger.VerifyChain(fx.governor.Store()); err != nil {
		t.Fatalf("VerifyChain() = %v", err)
	}
}

// flipIn returns a copy of frame with one bit of the first occurrence
// of mark flipped: a byte changed in flight.
func flipIn(t *testing.T, frame, mark []byte) []byte {
	t.Helper()
	at := bytes.Index(frame, mark)
	if at < 0 {
		t.Fatalf("mark %q not in the frame", mark)
	}
	out := bytes.Clone(frame)
	out[at+len(mark)-1] ^= 1
	return out
}

// TestFlippedBytesRefusedInFlight: a byte of a transaction changed in
// flight — in a provider frame, an upload batch or a block frame — is
// caught although every hash is now taken from the bytes received: the
// collector discards the transaction, the governor refuses the upload
// as a bad batch signature and the block as a bad proposer signature,
// and a block frame the change leaves undecodable is counted as one.
func TestFlippedBytesRefusedInFlight(t *testing.T) {
	a := newAlliance(t, nil)
	mark := []byte("\x01in-flight") // valid under oracle
	signed := signBatch(a.prov, []Submission{{Kind: "x", Payload: mark, Valid: true}}, 1)

	frame := flipIn(t, tx.EncodeListBytes(signed), mark)
	sink := &countingSender{}
	if _, err := a.coll.processBatch([]network.Message{{From: a.provider.ID, Kind: network.KindProviderTx, Payload: frame}}, sink); err != nil {
		t.Fatal(err)
	}
	if st := a.coll.Stats(); st.Discarded != 1 || st.Uploaded != 0 {
		t.Fatalf("collector stats %+v after a flipped provider frame, want 1 discarded", st)
	}

	coll := a.govs[0].cfg.Roster.Collectors[0]
	upload, err := tx.SignUploadBatch(coll.ID, 1, []tx.UploadItem{{Signed: signed[0], Label: tx.LabelValid}}, coll.PrivateKey)
	a.check(err)
	msg := network.Message{From: coll.ID, Kind: network.KindCollectorBatch, Payload: flipIn(t, upload, mark)}
	if _, err := a.try(0, a.at(0), msg); err != nil {
		t.Fatal(err)
	}
	rejected := a.reg.CounterVec("node.uploads_rejected_total", "reason")
	if got := rejected.With("batch_sig").Value(); got != 1 || a.govs[0].Stats().ReportsReceived != 0 {
		t.Fatalf("uploads_rejected_total{batch_sig} = %d, %d reports admitted; want 1 and 0", got, a.govs[0].Stats().ReportsReceived)
	}

	// The round's block carries the transaction; two governors get a
	// copy changed in flight, one in a record, one in the block tag.
	a.check(a.prov.broadcast(signed, a.bus))
	_, err = stepDue(a.coll, testClock.At(1, DeadlineUpload), a.collEp.Receive(), a.bus)
	a.check(err)
	a.open()
	leader := a.elect(0, 1, 2)
	var blockFrame []byte
	a.bus.SetDropFunc(func(m network.Message, to identity.NodeID) bool {
		if m.Kind != network.KindBlock {
			return false
		}
		blockFrame = m.Payload
		return to != a.ids[leader]
	})
	a.propose(leader)
	a.bus.SetDropFunc(nil)
	record, tag := (leader+1)%3, (leader+2)%3
	a.check(a.bus.Multicast(a.ids[leader], a.ids[record:record+1], network.KindBlock, flipIn(t, blockFrame, mark)))
	a.check(a.bus.Multicast(a.ids[leader], a.ids[tag:tag+1], network.KindBlock, flipIn(t, blockFrame, []byte("repchain/block"))))
	if _, err := a.try(record, a.at(DeadlineElect)); !errors.Is(err, crypto.ErrBadSignature) {
		t.Fatalf("block with a flipped record: Step error = %v, want ErrBadSignature", err)
	}
	if p := a.step(tag, a.at(DeadlineElect)); p.Committed || a.ignored("decode") != 1 {
		t.Fatalf("block with a flipped tag: committed %v, %d ignored as undecodable", p.Committed, a.ignored("decode"))
	}
	for _, j := range []int{record, tag} {
		if h := a.govs[j].Store().Height(); h != 0 {
			t.Fatalf("governor %d height = %d after a flipped block, want 0", j, h)
		}
	}
}
