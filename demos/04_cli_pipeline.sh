#!/bin/sh
# End-to-end pipeline through the command-line interface:
# generate a toy dataset, train with all losses, evaluate with re-ranking.
set -e

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

python3 -m dareid.cli gen \
    --out-dir "$WORK/data" \
    --ids-real 6 --ids-synth 6 --per-id 6 --dim 8 \
    --shift-offset 1.5 --seed 0

python3 -m dareid.cli train \
    --data "$WORK/data/real.jsonl" \
    --synth "$WORK/data/synth.jsonl" \
    --out-dir "$WORK/run" \
    --losses V,D,O,C,T \
    --epochs 20 --iterations 6 --n 2 --m 3 \
    --hidden-dims 32 --embed-dim 8 --base-lr 3e-3

echo "--- training report ---"
cat "$WORK/run/report.json"
echo

python3 -m dareid.cli eval \
    --checkpoint "$WORK/run/checkpoint.bin" \
    --query "$WORK/data/real.jsonl" \
    --gallery "$WORK/data/real.jsonl" \
    --exclude-self --rerank --k1 6 --k2 2 \
    --out "$WORK/eval.json" \
    --per-query-csv "$WORK/per_query.csv" \
    --pr-csv "$WORK/pr.csv"

echo "--- evaluation report ---"
cat "$WORK/eval.json"
