// Fixture: unsigned size() subtraction in the external-file parser is
// flagged; the restructured comparison is not.
// pseudo-path: src/util/json.cpp
// expect: unchecked-size x1

#include <cstddef>
#include <vector>

std::size_t flagged(const std::vector<unsigned char>& payload)
{
    return payload.size() - 8;
}

bool fine(const std::vector<unsigned char>& payload, std::size_t need)
{
    return payload.size() < need;
}
