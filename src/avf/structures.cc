#include "avf/structures.hh"

namespace smtavf
{

const char *
hwStructName(HwStruct s)
{
    switch (s) {
      case HwStruct::IQ: return "IQ";
      case HwStruct::RegFile: return "Reg";
      case HwStruct::FU: return "FU";
      case HwStruct::ROB: return "ROB";
      case HwStruct::LsqData: return "LSQ_data";
      case HwStruct::LsqTag: return "LSQ_tag";
      case HwStruct::Dl1Data: return "DL1_data";
      case HwStruct::Dl1Tag: return "DL1_tag";
      case HwStruct::Dtlb: return "DTLB";
      case HwStruct::Itlb: return "ITLB";
      case HwStruct::L2Data: return "L2_data";
      case HwStruct::L2Tag: return "L2_tag";
      default: return "?";
    }
}

} // namespace smtavf
