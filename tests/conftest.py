from pathlib import Path

FIXTURES = Path(__file__).parent.parent / "fixtures"

# Label-set literals Python's int() reads, so that each would name the pool
# of another literal: a sign, an underscore, spaces, non-ASCII digits ("3-5").
LOOSE_LABEL_SETS = ["+5", "1_000", " 7 ", "5- 7", "\u0663-\u0665"]
