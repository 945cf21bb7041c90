#!/usr/bin/env bash
# Full-scale leave-one-domain-out runs on SNIPS (7 domains, 39 slots).
#
# Not part of the test suite: each domain takes hours of CPU/GPU time and
# needs externally supplied data. Reference targets for this configuration
# (300-d pretrained word vectors, defaults below): average slot F1 42.82
# zero-shot and 78.62 few-shot(50); unseen-slot average 17.38, seen 51.68.
#
# Expected inputs:
#   $SNIPS_DIR   directory of <domain>.conll files (token<TAB>tag lines,
#                blank line between utterances), one file per domain
#   $GLOVE_TXT   GloVe-style 300-d text vectors ("word v1 ... v300" lines)
set -euo pipefail

SNIPS_DIR=${SNIPS_DIR:?set SNIPS_DIR to the SNIPS conll directory}
GLOVE_TXT=${GLOVE_TXT:?set GLOVE_TXT to a 300-d embedding text file}
OUT=${OUT:-runs/snips}
SEED=${SEED:-1}

DOMAINS=$(ls "$SNIPS_DIR" | sed -n 's/\.conll$//p')

for domain in $DOMAINS; do
  # zero-shot: 30 epochs, patience 15, batch 64, lr 5e-4 (defaults)
  pclc train \
    --data-dir "$SNIPS_DIR" --embeddings "$GLOVE_TXT" \
    --target "$domain" --seed "$SEED" \
    --output-dir "$OUT/zero-shot/$domain"
  pclc eval "$OUT/zero-shot/$domain/checkpoint" \
    --data-dir "$SNIPS_DIR" --output-dir "$OUT/zero-shot/$domain"

  # few-shot on 50 target samples: 60 epochs by default
  pclc train \
    --data-dir "$SNIPS_DIR" --embeddings "$GLOVE_TXT" \
    --target "$domain" --seed "$SEED" --few-shot 50 \
    --output-dir "$OUT/few-shot/$domain"
  pclc eval "$OUT/few-shot/$domain/checkpoint" \
    --data-dir "$SNIPS_DIR" --output-dir "$OUT/few-shot/$domain"
done

# confusion-factor sweep on one domain (curve peaks at lambda 0.6)
pclc sweep-lambda --lambdas 0.0,0.2,0.4,0.6,0.8,1.0 \
  --data-dir "$SNIPS_DIR" --embeddings "$GLOVE_TXT" \
  --target GetWeather --seed "$SEED" \
  --output-dir "$OUT/lambda-sweep"

# prototype vectors for offline visualization
pclc export-protos "$OUT/zero-shot/GetWeather/checkpoint" "$OUT/getweather_protos.tsv" \
  --data-dir "$SNIPS_DIR"
