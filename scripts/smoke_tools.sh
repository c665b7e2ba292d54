#!/usr/bin/env bash
# End-to-end smoke test of the command-line tools, wired into ctest.
# Exercises the full hmmbuild -> hmmstat -> hmmemit -> hmmsearch ->
# hmmalign round trip through real files.
set -euo pipefail

BIN_DIR=${1:?usage: smoke_tools.sh <examples-bin-dir> [tools-bin-dir]}
TOOLS_DIR=${2:-$BIN_DIR/../tools}
BIN_DIR=$(cd "$BIN_DIR" && pwd)
GOLDEN=$(cd "$(dirname "$0")/../tests/golden/tools_smoke" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== hmmbuild_tool =="
"$BIN_DIR/hmmbuild_tool" --demo "$WORK/model.hmm"
grep -q "STATS LOCAL MSV" "$WORK/model.hmm"

echo "== hmmstat_tool =="
"$BIN_DIR/hmmstat_tool" "$WORK/model.hmm" | grep -q "match states"

echo "== hmmemit_tool =="
"$BIN_DIR/hmmemit_tool" "$WORK/model.hmm" 8 "$WORK/homologs.fasta"
grep -c '^>' "$WORK/homologs.fasta" | grep -qx 8

echo "== hmmsearch_tool (CPU) =="
"$BIN_DIR/hmmsearch_tool" "$WORK/model.hmm" "$WORK/homologs.fasta" \
  > "$WORK/cpu.out"
grep -q "hits 8" "$WORK/cpu.out" || {
  echo "expected all 8 emitted homologs to hit"; cat "$WORK/cpu.out"; exit 1;
}

echo "== hmmsearch_tool (GPU engine) =="
"$BIN_DIR/hmmsearch_tool" --gpu "$WORK/model.hmm" "$WORK/homologs.fasta" \
  > "$WORK/gpu.out"
# Identical hit counts from both engines.
cpu_hits=$(grep -o "hits [0-9]*" "$WORK/cpu.out")
gpu_hits=$(grep -o "hits [0-9]*" "$WORK/gpu.out")
[ "$cpu_hits" = "$gpu_hits" ]

echo "== hmmsearch_tool --gpu (tblout byte-identical to CPU) =="
# Its own input, so the "hits 8" steps keep theirs: the homologs plus one
# empty record, which every engine counts into the first stage but never
# scores.
cp "$WORK/homologs.fasta" "$WORK/with_empty.fasta"
printf '>empty\n' >> "$WORK/with_empty.fasta"
"$BIN_DIR/hmmsearch_tool" --domains --tblout "$WORK/cpu_empty.tbl" \
  "$WORK/model.hmm" "$WORK/with_empty.fasta" > /dev/null
"$BIN_DIR/hmmsearch_tool" --gpu --domains --tblout "$WORK/gpu_empty.tbl" \
  "$WORK/model.hmm" "$WORK/with_empty.fasta" > /dev/null
[ "$(grep -cv '^#' "$WORK/gpu_empty.tbl")" -eq 8 ]
cmp "$WORK/cpu_empty.tbl" "$WORK/gpu_empty.tbl"
"$BIN_DIR/hmmsearch_tool" --gpu --stats-json "$WORK/gpu.stats.json" \
  "$WORK/model.hmm" "$WORK/with_empty.fasta" > /dev/null
grep -q '"engine": "gpu_sim"' "$WORK/gpu.stats.json"

echo "== hmmsearch_tool --ali =="
"$BIN_DIR/hmmsearch_tool" --ali "$WORK/model.hmm" "$WORK/homologs.fasta" \
  | grep -q "model"

echo "== hmmalign_tool =="
"$BIN_DIR/hmmalign_tool" "$WORK/model.hmm" "$WORK/homologs.fasta" \
  "$WORK/aligned.afa"
grep -c '^>' "$WORK/aligned.afa" | grep -qx 8

echo "== hmmpress_tool / hmmscan_tool =="
"$BIN_DIR/hmmpress_tool" "$WORK/lib.fhpdb" "$WORK/model.hmm"
"$BIN_DIR/hmmscan_tool" "$WORK/lib.fhpdb" "$WORK/homologs.fasta" \
  > "$WORK/scan.out"
# Every emitted homolog should be annotated with the pressed model.
[ "$(grep -c demo_motif "$WORK/scan.out")" -ge 8 ] || {
  echo "hmmscan failed to annotate homologs"; cat "$WORK/scan.out"; exit 1;
}

echo "== seqconvert_tool round trip =="
"$BIN_DIR/seqconvert_tool" "$WORK/homologs.fasta" "$WORK/homologs.fsqdb"
"$BIN_DIR/seqconvert_tool" "$WORK/homologs.fsqdb" "$WORK/back.fasta"
cmp -s <(grep -v '^>' "$WORK/homologs.fasta" | tr -d '\n') \
       <(grep -v '^>' "$WORK/back.fasta" | tr -d '\n')
# hmmsearch straight from the packed database.
"$BIN_DIR/hmmsearch_tool" "$WORK/model.hmm" "$WORK/homologs.fsqdb" \
  | grep -q "hits 8"

echo "== hmmsim_tool (Gumbel hypothesis must not be rejected) =="
"$BIN_DIR/hmmsim_tool" "$WORK/model.hmm" 300 > /dev/null

echo "== tblout / domains =="
"$BIN_DIR/hmmsearch_tool" --domains --tblout "$WORK/hits.tbl" \
  "$WORK/model.hmm" "$WORK/homologs.fasta" > /dev/null
[ "$(grep -cv '^#' "$WORK/hits.tbl")" -eq 8 ]

echo "== hmmsearch_tool output matches the committed golden =="
# Domain scores, the null2 bias and the alignments are pinned to the
# files in tests/golden/tools_smoke, so any drift in them fails here and
# not only a mismatch between two engines.  The runs use relative paths
# in a directory of their own so the file names they print are stable.
mkdir "$WORK/golden"
cp "$WORK/model.hmm" "$WORK/homologs.fasta" "$WORK/golden/"
(cd "$WORK/golden" &&
  "$BIN_DIR/hmmsearch_tool" --domains --ali --tblout hits.tbl \
    model.hmm homologs.fasta > domains_ali.out &&
  "$BIN_DIR/hmmsearch_tool" --ali model.hmm homologs.fasta > ali.out)
for f in hits.tbl domains_ali.out ali.out; do
  cmp "$GOLDEN/$f" "$WORK/golden/$f"
done

echo "== hmmsearch_tool --threads 2 (tblout identical to serial) =="
"$BIN_DIR/hmmsearch_tool" --domains --threads 2 --tblout "$WORK/threads.tbl" \
  "$WORK/model.hmm" "$WORK/homologs.fasta" > /dev/null
cmp "$WORK/hits.tbl" "$WORK/threads.tbl"
"$BIN_DIR/hmmsearch_tool" --threads 2 --tblout "$WORK/threads_mapped.tbl" \
  "$WORK/model.hmm" "$WORK/homologs.fsqdb" > /dev/null
"$BIN_DIR/hmmsearch_tool" --tblout "$WORK/serial_mapped.tbl" \
  "$WORK/model.hmm" "$WORK/homologs.fsqdb" > /dev/null
cmp "$WORK/serial_mapped.tbl" "$WORK/threads_mapped.tbl"

echo "== quickstart / pfam_scan / gpu_speedup_demo =="
"$BIN_DIR/quickstart" > /dev/null
"$BIN_DIR/pfam_scan" 3 120 > /dev/null
"$BIN_DIR/gpu_speedup_demo" 100 > /dev/null

echo "== exit-code contract: 2 = bad arguments, 3 = I/O failure =="
# The tools share examples/tool_exit.hpp: argument mistakes and I/O
# failures must be distinguishable to scripts without parsing stderr.
expect_rc() {
  local want=$1; shift
  local rc=0
  "$@" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq "$want" ] || {
    echo "FAIL: '$*' exited $rc, want $want"; exit 1; }
}
expect_rc 2 "$BIN_DIR/hmmsearch_tool"                       # no arguments
expect_rc 2 "$BIN_DIR/hmmsearch_tool" --no-such-flag x y    # unknown flag
expect_rc 2 "$BIN_DIR/hmmbuild_tool"                        # no arguments
expect_rc 2 "$BIN_DIR/hmmemit_tool"                         # no arguments
expect_rc 2 "$BIN_DIR/hmmscan_tool" --bogus a b             # unknown flag
expect_rc 3 "$BIN_DIR/hmmsearch_tool" "$WORK/absent.hmm" \
  "$WORK/homologs.fasta"                                    # missing model
expect_rc 3 "$BIN_DIR/hmmsearch_tool" "$WORK/model.hmm" \
  "$WORK/absent.fasta"                                      # missing database
expect_rc 3 "$BIN_DIR/hmmstat_tool" "$WORK/absent.hmm"      # missing model
expect_rc 3 "$BIN_DIR/hmmalign_tool" "$WORK/model.hmm" \
  "$WORK/absent.fasta" "$WORK/out.afa"                      # missing input
expect_rc 3 "$BIN_DIR/seqconvert_tool" "$WORK/absent.fasta" \
  "$WORK/out.fsqdb"                                         # missing input

echo "== port arguments: strict parse, 2 before any bind or dial =="
# A mistyped port must be a usage error, not a bind or dial on some other
# port (70000 would wrap to 4464, 12abc would read as 12).  Each command
# is otherwise complete, so only the port can fail it; the timeout turns
# a daemon that wrongly started serving into a failure, not a hang.
expect_rc_unbound() {
  local rc=0
  timeout 30 "$@" > "$WORK/port.out" 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || {
    echo "FAIL: '$*' exited $rc, want 2"; cat "$WORK/port.out"; exit 1; }
  ! grep -q "listening on\|metrics on" "$WORK/port.out" || {
    echo "FAIL: '$*' bound a port"; cat "$WORK/port.out"; exit 1; }
}
mkdir -p "$WORK/shards"
"$TOOLS_DIR/fsqdb_shard" --shards 1 --out "$WORK/shards" \
  "$WORK/homologs.fsqdb" > /dev/null
expect_rc_unbound "$TOOLS_DIR/finehmmd" --port 70000 "$WORK/homologs.fsqdb"
expect_rc_unbound "$TOOLS_DIR/finehmmd" --port 12abc "$WORK/homologs.fsqdb"
expect_rc_unbound "$TOOLS_DIR/finehmmd" --metrics-port 99999 \
  "$WORK/homologs.fsqdb"
expect_rc_unbound "$TOOLS_DIR/finehmm_clusterd" \
  --manifest "$WORK/shards/shard.manifest.json" --shard 127.0.0.1:12abc
expect_rc_unbound "$TOOLS_DIR/finehmm_client" --ping 127.0.0.1:12abc
expect_rc_unbound "$BIN_DIR/hmmsearch_tool" --connect 127.0.0.1:12abc \
  "$WORK/model.hmm"

echo "ALL TOOL SMOKE TESTS PASSED"
