#!/bin/sh
# Runs the race gates that race_gates.txt lists: one `go test` per
# (package, flags) group, in the order the groups first appear, with -run
# naming exactly the group's tests. It stops at the first failing group.
set -eu
cd "$(dirname "$0")/.."
sed -e 's/#.*//' ci/race_gates.txt | awk '
	NF {
		key = $2
		for (i = 3; i <= NF; i++) key = key " " $i
		if (!(key in tests)) { order[groups++] = key; tests[key] = $1 } else tests[key] = tests[key] "|" $1
	}
	END { for (g = 0; g < groups; g++) print order[g] "\t" tests[order[g]] }' |
while IFS='	' read -r group tests; do
	pkg=${group%% *}
	flags=${group#"$pkg"}
	echo "go test$flags -run '^($tests)\$' $pkg"
	go test $flags -run "^($tests)\$" "$pkg"
done
