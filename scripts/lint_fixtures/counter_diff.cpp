// Fixture: differencing two reads of a live counter accessor is flagged;
// subtracting a plain local is not.
// pseudo-path: src/runtime/fixture.cpp
// expect: counter-diff x1

struct pool_like {
    unsigned long steal_count() const { return 0; }
};

unsigned long stat_delta(const pool_like& p, unsigned long before)
{
    return p.steal_count() - before;
}

unsigned long fine(unsigned long after, unsigned long before)
{
    return after - before;
}
