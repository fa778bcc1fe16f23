#!/bin/sh
# Fails when a test name in a -run list of the CI workflow matches no Test
# function in the repo, so a renamed or deleted test cannot silently drop out
# of a stress step. Each |-separated alternative of every -run '...' pattern
# is matched, as go test matches it (an unanchored regular expression), against
# the names of the repo's func Test... declarations; an empty pattern ('^$',
# "run no test") is skipped.
#
#   scripts/check-ci-tests.sh [workflow.yml]
set -ef # -f: a pattern is never a file glob
cd "$(dirname "$0")/.."
ci=${1:-.github/workflows/ci.yml}
names=$(find . -name '*_test.go' ! -path '*/.*' -exec grep -hoE '^func Test[A-Za-z0-9_]*' {} + | sed 's/^func //')
status=0
checked=0
for alt in $(grep -oE -- "-run[= ]'[^']*'" "$ci" | sed -E "s/^-run[= ]'//; s/'\$//" | tr '|' '\n'); do
	case $alt in '^$' | '') continue ;; esac
	checked=$((checked + 1))
	if ! printf '%s\n' "$names" | grep -qE -- "$alt"; then
		echo "$ci: -run alternative '$alt' matches no func Test in the repo" >&2
		status=1
	fi
done
[ $status -eq 0 ] && echo "check-ci-tests: all $checked -run alternatives in $ci match a test"
exit $status
