#include "circuit/cell_library.h"

namespace synts::circuit {

std::string_view cell_kind_name(cell_kind kind) noexcept
{
    switch (kind) {
    case cell_kind::const0:
        return "CONST0";
    case cell_kind::const1:
        return "CONST1";
    case cell_kind::buf:
        return "BUF";
    case cell_kind::inv:
        return "INV";
    case cell_kind::and2:
        return "AND2";
    case cell_kind::or2:
        return "OR2";
    case cell_kind::nand2:
        return "NAND2";
    case cell_kind::nor2:
        return "NOR2";
    case cell_kind::xor2:
        return "XOR2";
    case cell_kind::xnor2:
        return "XNOR2";
    case cell_kind::and3:
        return "AND3";
    case cell_kind::or3:
        return "OR3";
    case cell_kind::nand3:
        return "NAND3";
    case cell_kind::nor3:
        return "NOR3";
    case cell_kind::aoi21:
        return "AOI21";
    case cell_kind::oai21:
        return "OAI21";
    case cell_kind::mux2:
        return "MUX2";
    case cell_kind::dff:
        return "DFF";
    }
    return "?";
}

bool evaluate_cell(cell_kind kind, std::span<const bool> inputs) noexcept
{
    const bool a = !inputs.empty() && inputs[0];
    const bool b = inputs.size() > 1 && inputs[1];
    const bool c = inputs.size() > 2 && inputs[2];
    switch (kind) {
    case cell_kind::const0:
        return false;
    case cell_kind::const1:
        return true;
    case cell_kind::buf:
    case cell_kind::dff:
        return a;
    case cell_kind::inv:
        return !a;
    case cell_kind::and2:
        return a && b;
    case cell_kind::or2:
        return a || b;
    case cell_kind::nand2:
        return !(a && b);
    case cell_kind::nor2:
        return !(a || b);
    case cell_kind::xor2:
        return a != b;
    case cell_kind::xnor2:
        return a == b;
    case cell_kind::and3:
        return a && b && c;
    case cell_kind::or3:
        return a || b || c;
    case cell_kind::nand3:
        return !(a && b && c);
    case cell_kind::nor3:
        return !(a || b || c);
    case cell_kind::aoi21:
        return !((a && b) || c);
    case cell_kind::oai21:
        return !((a || b) && c);
    case cell_kind::mux2:
        return c ? b : a;
    }
    return false;
}

cell_library cell_library::standard_22nm()
{
    cell_library lib;
    auto set = [&lib](cell_kind kind, double delay, double load, double area, double cap,
                      double leak, double energy) {
        lib.params_[static_cast<std::size_t>(kind)] =
            cell_params{delay, load, area, cap, leak, energy};
    };

    // Ratios follow familiar standard-cell scaling: inverter fastest,
    // XOR/MUX slowest among 2-input cells, 3-input cells slower than
    // 2-input, complex AOI/OAI between NAND and XOR.
    //            kind               delay  load  area   cap   leak  energy
    set(cell_kind::const0, /*ps*/ 0.0, 0.0, 0.00, 0.0, 0.0, 0.00);
    set(cell_kind::const1, /*ps*/ 0.0, 0.0, 0.00, 0.0, 0.0, 0.00);
    set(cell_kind::buf, /*    */ 9.0, 1.0, 0.29, 0.8, 1.1, 0.45);
    set(cell_kind::inv, /*    */ 6.0, 0.9, 0.20, 0.7, 1.0, 0.32);
    set(cell_kind::and2, /*   */ 13.0, 1.1, 0.39, 0.9, 1.6, 0.62);
    set(cell_kind::or2, /*    */ 13.5, 1.1, 0.39, 0.9, 1.6, 0.63);
    set(cell_kind::nand2, /*  */ 9.5, 1.0, 0.29, 0.9, 1.3, 0.50);
    set(cell_kind::nor2, /*   */ 10.5, 1.0, 0.29, 0.9, 1.3, 0.52);
    set(cell_kind::xor2, /*   */ 18.0, 1.3, 0.59, 1.2, 2.4, 0.95);
    set(cell_kind::xnor2, /*  */ 18.5, 1.3, 0.59, 1.2, 2.4, 0.96);
    set(cell_kind::and3, /*   */ 16.0, 1.2, 0.49, 1.0, 2.0, 0.78);
    set(cell_kind::or3, /*    */ 16.5, 1.2, 0.49, 1.0, 2.0, 0.80);
    set(cell_kind::nand3, /*  */ 12.5, 1.1, 0.39, 1.0, 1.7, 0.64);
    set(cell_kind::nor3, /*   */ 14.0, 1.1, 0.39, 1.0, 1.7, 0.66);
    set(cell_kind::aoi21, /*  */ 13.0, 1.1, 0.44, 1.0, 1.8, 0.68);
    set(cell_kind::oai21, /*  */ 13.5, 1.1, 0.44, 1.0, 1.8, 0.69);
    set(cell_kind::mux2, /*   */ 17.0, 1.3, 0.54, 1.1, 2.2, 0.90);
    set(cell_kind::dff, /*    */ 32.0, 1.2, 1.47, 1.4, 4.5, 2.40);
    return lib;
}

} // namespace synts::circuit
