#!/usr/bin/env bash
# Net production Go lines of the working tree against a base commit:
#
#   scripts/netlines.sh [base]    # base defaults to HEAD
#
# Counts the lines added and removed in Go files outside *_test.go and
# perfbench/, staged, unstaged and untracked changes included; then the
# same counts over code lines only, skipping blank lines and lines that
# hold nothing but a // comment.
set -euo pipefail
base="${1:-HEAD}"
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || { echo "netlines: no commit $base" >&2; exit 2; }

spec=('*.go' ':(exclude)*_test.go' ':(exclude)perfbench/**')
{
	git diff --no-color --no-ext-diff -U0 "$base" -- "${spec[@]}"
	git ls-files --others --exclude-standard -z -- "${spec[@]}" |
		while IFS= read -r -d '' f; do git diff --no-color --no-index -U0 /dev/null "$f" || true; done
} | awk '
	/^diff / { hunk = 0; next }
	/^@@/ { hunk = 1; next }
	hunk && /^[-+]/ {
		s = substr($0, 1, 1)
		t = substr($0, 2)
		all[s]++
		gsub(/^[ \t]+|[ \t]+$/, "", t)
		if (t != "" && substr(t, 1, 2) != "//") code[s]++
	}
	END {
		printf "all lines:  +%d / -%d  net %d\n", all["+"], all["-"], all["+"] - all["-"]
		printf "code lines: +%d / -%d  net %d\n", code["+"], code["-"], code["+"] - code["-"]
	}'
