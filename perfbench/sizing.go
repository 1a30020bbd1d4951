package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"

	"mbsp/internal/portfolio"
)

// coldCapMs leaves out keys whose single cold run takes longer than this:
// one serve-cold pass must stay a few seconds long so every run covers
// whole passes.
const coldCapMs = 3000

// sizeColdKeys sends every key of the serve-cold key space once to a
// fresh server in the serving configuration and records, per key, the
// cold latency, whether the answer is full fidelity (rung "portfolio",
// no degraded candidate, not interrupted — so the node limit, not the
// compute timeout, ended every search), and the ILP candidate's model
// rows and tree-search entry (from a replay of that candidate). The
// table it prints is sizing.json, which the serve-cold rotation is read
// from.
func sizeColdKeys(scratch string, w io.Writer) error {
	keys := coldKeySpace()
	c, err := newCorpus(keys)
	if err != nil {
		return err
	}
	ls, _, err := bootServer(serveConfig(filepath.Join(scratch, "size-cache"), nil))
	if err != nil {
		return err
	}
	defer ls.stop()
	rows := make([]sizedKey, 0, len(keys))
	for _, k := range keys {
		row := sizedKey{serveKey: k, Verdict: "ok"}
		warm, err := c.baseline(k)
		if err != nil {
			return fmt.Errorf("%s: baseline: %w", k, err)
		}
		row.Baseline = warm.Cost(k.costModel())
		rp := ls.schedule(k, c.body[k.Inst])
		row.ColdMs = ms(rp.latency)
		if rp.err != nil {
			row.Verdict = "error: " + rp.err.Error()
		} else if resp, err := decodeResponse(rp.body); err != nil {
			row.Verdict = "undecodable response"
		} else {
			row.Winner, row.Cost = resp.Winner, resp.Cost
			cert := resp.Certificate
			switch {
			case cert == nil || cert.Rung != portfolio.RungPortfolio:
				row.Verdict = "not full fidelity: fallback rung"
			case cert.Interrupted || len(cert.Degraded) > 0:
				row.Verdict = "not full fidelity: compute timeout cut a search"
			case row.ColdMs > coldCapMs:
				row.Verdict = fmt.Sprintf("slower than %d ms", coldCapMs)
			}
		}
		if _, st, err := replayILPCandidate(c, k, warm); err == nil {
			row.ModelRows, row.Tree, row.ILPStatus, row.ILPNodes = st.ModelRows, st.UsedILP, st.ILPStatus, st.ILPNodes
		} else {
			row.Verdict = "ilp replay failed: " + err.Error()
		}
		logf("size %-28s %8.1f ms rows %5d tree %-5v %-24s winner %-16s %s",
			k, row.ColdMs, row.ModelRows, row.Tree, row.ILPStatus, row.Winner, row.Verdict)
		rows = append(rows, row)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
