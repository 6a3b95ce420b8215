// Package trace captures the coherence message streams observed at the
// DSM directories and replays them into predictors offline.
//
// The paper's predictor evaluation (§7.1–7.3) is a function of the
// per-block message streams alone; capturing them once and replaying them
// makes predictor studies cheap (no re-simulation) and lets external
// traces be evaluated with the same machinery. A Recorder is installed as
// the protocol's online trace hook (protocol.System.SetTrace) and sees
// every directory-incoming message as it is processed; each block's
// events arrive in the same order as its home directory feeds them to
// the passive predictors, so replaying the trace reproduces their
// measurements exactly.
package trace
